//! Cluster client tier: pooled binary-protocol connections to shard
//! nodes, and a scatter-gather router that answers trip queries over a
//! shard-per-process cluster **byte-identically** to the in-process
//! [`ShardedSntIndex`](tthr_core::ShardedSntIndex).
//!
//! # Layout
//!
//! * [`NodeClient`] — one shard node's connection pool. Per-request
//!   connect/read/write timeouts, bounded retry with exponential backoff
//!   (idempotent requests only — which, thanks to the base-stamp
//!   idempotency of [`NodeWalRecord`] application, is *every* request),
//!   and atomic connect/retry counters the fault suite asserts against.
//! * [`ClusterRouter`] — the scatter-gather tier. Holds the
//!   [`ShardRouter`] first-edge table and, per shard, an **endpoint
//!   list** (the primary plus any standbys); single-shard SPQ primitives
//!   route by the traverse path's first edge, appends fan out one
//!   planned [`NodeWalRecord`] to every shard, and
//!   [`ClusterRouter::trip_query`] runs the full shift-and-enlarge
//!   [`QueryEngine`] locally over a remote backend that ships each
//!   relaxation round as one `LadderBatch` RPC per shard it touches.
//!
//! # Exactness
//!
//! The router is exact for the same reason the in-process sharded index
//! is: shard `s` holds the complete trajectories of everything touching
//! its edges, every SPQ a trip query issues keeps the traverse path's
//! first edge, and member ids preserve global order. The cluster
//! differential suite (`tests/equivalence.rs`) checks the
//! byte-identity claim end to end against the monolith.
//!
//! # Failure semantics
//!
//! A shard that cannot be reached on any admissible endpoint within the
//! configured retry budget surfaces as
//! [`ClusterError::ShardUnavailable`] — queries never silently degrade
//! to partial answers. Inside a running [`QueryEngine`], a backend trait
//! method cannot return `Result`, so the remote backend parks the first
//! error in a slot and returns a harmless non-empty dummy (the engine
//! terminates promptly instead of relaxing forever against empty
//! answers) — for that call and, without touching the wire again, for
//! every later call of the same trip; [`ClusterRouter::trip_query`]
//! checks the slot before returning and propagates the parked error.
//!
//! # Failover
//!
//! Every endpoint carries a circuit breaker (closed → open after
//! consecutive transport failures → half-open trials after a cooldown).
//! When a shard's preferred endpoint exhausts its retry budget, reads
//! fail over to the **freshest** reachable endpoint whose applied stamp
//! has caught up with the router's confirmed progress — a stale standby
//! is never preferred over a fresher one. Appends acquire a primary:
//! a live endpoint already in the primary role wins (so the router heals
//! back to a recovered real primary on its own); otherwise the freshest
//! *caught-up* standby is promoted via `Promote`. A standby behind
//! acknowledged progress is never promoted — asynchronous replication
//! means such a promotion would silently lose acknowledged appends, so
//! the router answers with a typed error instead. Re-sending a stamped
//! record to the new primary is safe either way: application dedupes by
//! base stamp, so an append retried across a promotion applies exactly
//! once. Before any traffic switches to a failover endpoint, the
//! connect-time consistency cross-checks (shard identity, cluster
//! shape, routing table) are re-run against it once and cached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tthr_core::node::{plan_node_records, MAX_LADDER_BATCH, MAX_LADDER_LEVELS};
use tthr_core::{
    ladder_sequential, CardinalityMode, IndexBackend, LadderRequest, NodeWalRecord, QueryEngine,
    QueryEngineConfig, SearchScratch, ShardRouter, Spq, TimeInterval, TravelTimeProvider,
    TravelTimes, TripQuery, TtValues,
};
use tthr_metrics::{Counter, Gauge, MetricsRegistry};
use tthr_network::{RoadNetwork, Timestamp};
use tthr_rpc::{read_frame, write_frame, ErrCode, FrameError, Message, NodeMeta, Role, WireError};
use tthr_store::StoreError;
use tthr_trajectory::{TrajEntry, UserId};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failure of a cluster operation.
#[derive(Debug)]
pub enum ClusterError {
    /// A shard could not be served by any admissible endpoint within
    /// the configured retry budget.
    ShardUnavailable {
        /// The shard whose nodes are unreachable.
        shard: u16,
        /// The preferred endpoint's address.
        addr: SocketAddr,
        /// The final transport error after retries were exhausted.
        source: io::Error,
    },
    /// The node sent bytes that do not parse as a protocol frame.
    Frame(FrameError),
    /// The node answered with a typed protocol error.
    Remote {
        /// The error class reported by the node.
        code: ErrCode,
        /// Human-readable detail.
        message: String,
    },
    /// An append arrived out of order: the node expected base stamp
    /// `expected` but the record carried `found`.
    WalGap {
        /// The node's current global count.
        expected: u64,
        /// The record's base stamp.
        found: u64,
    },
    /// The nodes disagree about cluster shape or progress (mixed shard
    /// counts, diverged global counters, mismatched routing tables).
    Inconsistent(String),
    /// A batch failed local validation before any node was contacted.
    Invalid(String),
    /// The node answered with a well-formed frame of the wrong type.
    Unexpected(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ShardUnavailable {
                shard,
                addr,
                source,
            } => {
                write!(f, "shard {shard} unavailable at {addr}: {source}")
            }
            ClusterError::Frame(e) => write!(f, "protocol error: {e}"),
            ClusterError::Remote { code, message } => {
                write!(f, "node error ({code:?}): {message}")
            }
            ClusterError::WalGap { expected, found } => {
                write!(
                    f,
                    "append gap: node expected base {expected}, record has {found}"
                )
            }
            ClusterError::Inconsistent(m) => write!(f, "inconsistent cluster: {m}"),
            ClusterError::Invalid(m) => write!(f, "invalid batch: {m}"),
            ClusterError::Unexpected(m) => write!(f, "unexpected reply: {m}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::ShardUnavailable { source, .. } => Some(source),
            ClusterError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClusterError {
    fn from(e: FrameError) -> Self {
        ClusterError::Frame(e)
    }
}

// ---------------------------------------------------------------------------
// NodeClient
// ---------------------------------------------------------------------------

/// Transport knobs for one [`NodeClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request socket read timeout.
    pub read_timeout: Duration,
    /// Per-request socket write timeout.
    pub write_timeout: Duration,
    /// Extra attempts after the first (transport errors only — protocol
    /// errors are never retried).
    pub retries: u32,
    /// Initial backoff before the first retry; doubles each retry.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(50),
        }
    }
}

/// A pooled binary-protocol client for one shard node.
///
/// Connections are checked out per request and returned on success; any
/// transport failure drops the connection *and flushes the pool* (a dead
/// server usually killed every pooled socket at once), so the retry
/// dials fresh. Checkout additionally **probes** each pooled socket with
/// a non-blocking peek and evicts the dead ones — after a node restart
/// the whole pool is stale, and without the probe every stale socket
/// would burn a request attempt (and a retry backoff sleep) before the
/// redial.
pub struct NodeClient {
    addr: SocketAddr,
    config: ClientConfig,
    pool: Mutex<Vec<TcpStream>>,
    connects: AtomicU64,
    retries: AtomicU64,
    evicted: AtomicU64,
}

impl NodeClient {
    /// A client for the node at `addr`. No connection is made until the
    /// first request.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        NodeClient {
            addr,
            config,
            pool: Mutex::new(Vec::new()),
            connects: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The node's address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fresh TCP connections dialed so far (first use and post-failure
    /// redials both count).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Retry attempts made after a transport failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Pooled connections evicted by the checkout liveness probe (stale
    /// sockets left behind by a node restart).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let conn = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
        conn.set_read_timeout(Some(self.config.read_timeout))?;
        conn.set_write_timeout(Some(self.config.write_timeout))?;
        conn.set_nodelay(true)?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    /// Whether a pooled idle socket is no longer usable. A request/reply
    /// protocol owes us *nothing* between requests, so any readable state
    /// is death or desync: `Ok(0)` is the server's FIN (it restarted or
    /// closed us), `Ok(n)` is an unsolicited byte (protocol desync — a
    /// reply to nobody), and any error but `WouldBlock` is a reset.
    /// Only a clean "nothing to read yet" (`WouldBlock`) passes.
    fn is_stale(conn: &TcpStream) -> bool {
        if conn.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let stale =
            !matches!(conn.peek(&mut probe), Err(ref e) if e.kind() == ErrorKind::WouldBlock);
        stale || conn.set_nonblocking(false).is_err()
    }

    fn checkout(&self) -> io::Result<TcpStream> {
        loop {
            let Some(conn) = self.pool.lock().expect("pool lock").pop() else {
                break;
            };
            if !Self::is_stale(&conn) {
                return Ok(conn);
            }
            // A node restart kills every pooled socket at once; evicting
            // here costs a peek, while handing the dead socket out would
            // cost a failed request plus a retry backoff.
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        self.dial()
    }

    fn request_once(&self, message: &Message) -> Result<Message, WireError> {
        let mut conn = self.checkout()?;
        write_frame(&mut conn, message)?;
        match read_frame(&mut conn)? {
            Some(reply) => {
                self.pool.lock().expect("pool lock").push(conn);
                Ok(reply)
            }
            None => Err(WireError::Io(io::Error::new(
                ErrorKind::UnexpectedEof,
                "node closed the connection mid-request",
            ))),
        }
    }

    /// Sends one request and reads one reply, retrying transport
    /// failures up to `config.retries` times with exponential backoff.
    ///
    /// Safe for **every** message in the protocol: reads are naturally
    /// idempotent, and [`NodeWalRecord`] application dedupes re-sent
    /// appends by base stamp, so a retry after a lost response re-applies
    /// nothing. Protocol-level errors ([`WireError::Frame`]) are returned
    /// immediately — resending bytes the peer already rejected as
    /// malformed cannot succeed.
    pub fn request(&self, message: &Message) -> Result<Message, WireError> {
        let mut backoff = self.config.backoff;
        let mut last: io::Error;
        let mut attempt = 0u32;
        loop {
            match self.request_once(message) {
                Ok(reply) => return Ok(reply),
                Err(WireError::Frame(e)) => return Err(WireError::Frame(e)),
                Err(WireError::Io(e)) => {
                    // Stale pooled sockets die together with the server;
                    // flush them so the retry dials fresh.
                    self.pool.lock().expect("pool lock").clear();
                    last = e;
                }
            }
            if attempt >= self.config.retries {
                return Err(WireError::Io(last));
            }
            attempt += 1;
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker tuning, shared by every endpoint of a router.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects traffic before admitting
    /// half-open trial requests.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(1),
        }
    }
}

/// The observable state of an endpoint's circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive failures are being counted.
    Closed,
    /// Cooldown elapsed: trial traffic is admitted; one success closes
    /// the breaker, one failure re-opens it.
    HalfOpen,
    /// Tripped: traffic is rejected until the cooldown elapses.
    Open,
}

impl BreakerState {
    /// Encoding used by the `tthr_breaker_state` gauge:
    /// 0 closed, 1 half-open, 2 open.
    pub(crate) fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

enum BreakerInner {
    Closed { failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// A per-endpoint circuit breaker. Transport failures (retry budget
/// exhausted) count against it; *any* completed exchange — including a
/// typed error frame — counts as success, because a node that answers
/// is alive. An open breaker lets the router skip an endpoint that is
/// known-dead without burning a full retry budget on it, and the
/// half-open state re-admits it gradually once the cooldown elapses.
struct Breaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    fn new(config: BreakerConfig) -> Self {
        Breaker {
            config,
            inner: Mutex::new(BreakerInner::Closed { failures: 0 }),
        }
    }

    /// Whether a request may be sent through this breaker right now.
    /// An open breaker whose cooldown has elapsed transitions to
    /// half-open and admits the request as a trial. Half-open admits
    /// every caller (a trial may be skipped by staleness filters
    /// downstream; admitting only one would wedge the breaker).
    fn allow(&self) -> bool {
        let mut inner = self.inner.lock().expect("breaker lock");
        match *inner {
            BreakerInner::Closed { .. } | BreakerInner::HalfOpen => true,
            BreakerInner::Open { since } => {
                if since.elapsed() >= self.config.cooldown {
                    *inner = BreakerInner::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        *self.inner.lock().expect("breaker lock") = BreakerInner::Closed { failures: 0 };
    }

    fn on_failure(&self) {
        let mut inner = self.inner.lock().expect("breaker lock");
        *inner = match *inner {
            BreakerInner::Closed { failures } if failures + 1 < self.config.failure_threshold => {
                BreakerInner::Closed {
                    failures: failures + 1,
                }
            }
            _ => BreakerInner::Open {
                since: Instant::now(),
            },
        };
    }

    fn state(&self) -> BreakerState {
        match *self.inner.lock().expect("breaker lock") {
            BreakerInner::Closed { .. } => BreakerState::Closed,
            BreakerInner::Open { .. } => BreakerState::Open,
            BreakerInner::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

// ---------------------------------------------------------------------------
// ClusterRouter
// ---------------------------------------------------------------------------

/// Per-node transport counters, for observability and the fault suite.
/// Reported for each shard's currently **preferred** endpoint.
#[derive(Clone, Debug)]
pub struct NodeStats {
    /// The shard this node serves.
    pub shard: u16,
    /// The node's address.
    pub addr: SocketAddr,
    /// Fresh TCP connections dialed.
    pub connects: u64,
    /// Transport retries performed.
    pub retries: u64,
    /// Stale pooled connections evicted by the checkout probe.
    pub evicted: u64,
}

/// One shard's entry in [`ClusterRouter::health`].
#[derive(Clone, Copy, Debug)]
pub struct ShardHealth {
    /// The shard.
    pub shard: u16,
    /// The shard's preferred endpoint.
    pub addr: SocketAddr,
    /// Its last probe (seeded at connect for primaries), the applied stamp
    /// advanced by every append it acknowledged since; `None` if unprobed.
    pub status: Option<ReplInfo>,
}

/// An endpoint's replication status, as seen by the last probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplInfo {
    /// Primary or standby.
    pub role: Role,
    /// Records applied (global count at the endpoint's stamp).
    pub applied_stamp: u64,
    /// Stamp of the endpoint's on-disk snapshot.
    pub snapshot_stamp: u64,
}

/// Failover-router construction options.
#[derive(Clone, Debug, Default)]
pub struct RouterConfig {
    /// Transport knobs for every endpoint's [`NodeClient`].
    pub client: ClientConfig,
    /// Circuit-breaker tuning for every endpoint.
    pub breaker: BreakerConfig,
    /// Background health-probe cadence. `None` (the default) probes
    /// endpoints only during failover; `Some(interval)` runs a prober
    /// thread that refreshes replication status, keeps the lag gauges
    /// live, and walks open breakers back through half-open to closed
    /// while the application is idle.
    pub probe_interval: Option<Duration>,
}

/// The router's mirror of cluster-wide append progress, advanced only
/// after every node acknowledged a batch (under this lock, held across
/// the append's RPCs).
struct ClusterState {
    num_global: u64,
    span_min: Timestamp,
    span_max: Timestamp,
}

/// One endpoint of a shard: a client, its breaker, and its last known
/// replication status.
struct Endpoint {
    client: NodeClient,
    breaker: Breaker,
    status: Mutex<Option<ReplInfo>>,
    /// Whether the connect-time consistency cross-checks have run
    /// against this endpoint (see [`RouterCore::verify_endpoint`]).
    verified: AtomicBool,
    breaker_gauge: Gauge,
    lag_gauge: Gauge,
}

impl Endpoint {
    fn on_success(&self) {
        self.breaker.on_success();
        self.sync_breaker_gauge();
    }

    fn on_failure(&self) {
        self.breaker.on_failure();
        self.sync_breaker_gauge();
    }

    fn sync_breaker_gauge(&self) {
        self.breaker_gauge.set(self.breaker.state().gauge_value());
    }

    /// An `Appended { total }` ack: `total` is the applied stamp now.
    fn note_applied(&self, total: u64) {
        if let Some(info) = self.status.lock().expect("status lock").as_mut() {
            info.applied_stamp = total;
        }
    }
}

/// A shard's endpoint list and its currently preferred endpoint.
struct ShardSet {
    endpoints: Vec<Endpoint>,
    /// Index into `endpoints`: where reads and appends go first.
    active: AtomicUsize,
    failovers: Counter,
    /// Read RPCs routed to this shard (one per query primitive or ladder
    /// batch, however many endpoints the transport tried).
    rpcs: Counter,
    /// Ladders shipped to this shard inside those batches.
    ladders: Counter,
}

/// The shared router guts: everything the request paths and the
/// background prober both touch.
struct RouterCore {
    shards: Vec<ShardSet>,
    routing: ShardRouter,
    registry: MetricsRegistry,
    probe_failures: Counter,
    /// Trip queries started ([`ClusterRouter::trip_query`]).
    trips: Counter,
    state: Mutex<ClusterState>,
    /// `state.num_global`, for readers that must not wait for an append.
    confirmed: AtomicU64,
}

impl RouterCore {
    /// A typed unavailability for `shard`, attributed to its preferred
    /// endpoint.
    fn unavailable(&self, shard: u16, why: String) -> ClusterError {
        let set = &self.shards[shard as usize];
        let active = set.active.load(Ordering::Acquire);
        ClusterError::ShardUnavailable {
            shard,
            addr: set.endpoints[active].client.addr(),
            source: io::Error::new(ErrorKind::NotConnected, why),
        }
    }

    /// One `Health` exchange with an endpoint, recording the result in
    /// its status slot and breaker. Returns `None` on any failure.
    fn probe_endpoint(&self, shard: u16, idx: usize) -> Option<ReplInfo> {
        let ep = &self.shards[shard as usize].endpoints[idx];
        match rpc_on(&ep.client, shard, &Message::Health) {
            Ok(Message::ReplStatus {
                role,
                applied_stamp,
                snapshot_stamp,
            }) => {
                let info = ReplInfo {
                    role,
                    applied_stamp,
                    snapshot_stamp,
                };
                *ep.status.lock().expect("status lock") = Some(info);
                ep.on_success();
                Some(info)
            }
            _ => {
                ep.on_failure();
                self.probe_failures.inc();
                None
            }
        }
    }

    /// Probes every endpoint of `shard` but `skip` whose breaker admits
    /// it, setting its lag gauge against `need`; returns those that
    /// answered. A probe is the half-open trial that walks a recovered
    /// endpoint's open breaker back to closed.
    fn probe_shard(&self, shard: u16, need: u64, skip: Option<usize>) -> Vec<(usize, ReplInfo)> {
        let mut answered = Vec::new();
        for (idx, ep) in self.shards[shard as usize].endpoints.iter().enumerate() {
            if Some(idx) == skip || !ep.breaker.allow() {
                ep.sync_breaker_gauge();
                continue;
            }
            if let Some(info) = self.probe_endpoint(shard, idx) {
                ep.lag_gauge
                    .set(need.saturating_sub(info.applied_stamp) as i64);
                answered.push((idx, info));
            }
        }
        answered
    }

    /// One probing sweep over every shard: keeps the lag gauges live.
    fn probe_all(&self) {
        let need = self.state.lock().expect("state lock").num_global;
        for shard in 0..self.shards.len() {
            self.probe_shard(shard as u16, need, None);
        }
    }

    /// Re-runs the connect-time consistency cross-checks against an
    /// endpoint the router is about to fail over to: shard identity,
    /// cluster shape, and routing-table equality. Construction only
    /// verified each shard's *first* endpoint; switching traffic to an
    /// unverified one without these checks would let a misconfigured
    /// standby (wrong shard, wrong cluster) answer queries. The result
    /// is cached per endpoint — verification is one-time, not
    /// per-request. (Counts and spans are deliberately *not* compared:
    /// a standby legitimately lags; the stamp filters of the failover
    /// paths bound that.)
    fn verify_endpoint(&self, shard: u16, ep: &Endpoint) -> Result<(), ClusterError> {
        if ep.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        let meta = match rpc_on(&ep.client, shard, &Message::GetMeta)? {
            Message::Meta(meta) => meta,
            other => {
                return Err(ClusterError::Unexpected(format!(
                    "GetMeta answered with {other:?}"
                )))
            }
        };
        if meta.shard != shard {
            return Err(ClusterError::Inconsistent(format!(
                "endpoint {} serves shard {}, expected {shard}",
                ep.client.addr(),
                meta.shard
            )));
        }
        if meta.num_shards as usize != self.shards.len() {
            return Err(ClusterError::Inconsistent(format!(
                "endpoint {} believes the cluster has {} shards, router has {}",
                ep.client.addr(),
                meta.num_shards,
                self.shards.len()
            )));
        }
        let routing = match rpc_on(&ep.client, shard, &Message::GetRouting)? {
            Message::Routing(routing) => routing,
            other => {
                return Err(ClusterError::Unexpected(format!(
                    "GetRouting answered with {other:?}"
                )))
            }
        };
        if routing != self.routing {
            return Err(ClusterError::Inconsistent(format!(
                "endpoint {} disagrees on the routing table",
                ep.client.addr()
            )));
        }
        ep.verified.store(true, Ordering::Release);
        Ok(())
    }

    /// Routes a read to the shard's preferred endpoint, failing over on
    /// transport exhaustion. Typed remote errors are final — the node
    /// answered, so retrying elsewhere cannot change the outcome.
    fn query(&self, shard: u16, message: &Message) -> Result<Message, ClusterError> {
        let set = &self.shards[shard as usize];
        set.rpcs.inc();
        let active = set.active.load(Ordering::Acquire);
        let mut last: Option<ClusterError> = None;
        if set.endpoints[active].breaker.allow() {
            let ep = &set.endpoints[active];
            match rpc_on(&ep.client, shard, message) {
                Ok(reply) => {
                    ep.on_success();
                    return Ok(reply);
                }
                Err(e @ ClusterError::ShardUnavailable { .. }) => {
                    ep.on_failure();
                    last = Some(e);
                }
                Err(e) => {
                    ep.on_success();
                    return Err(e);
                }
            }
        }
        self.failover_read(shard, message, active, last)
    }

    /// The read failover path: probe every other admissible endpoint,
    /// try them freshest-first (never preferring a stale standby over a
    /// fresher one), filter out endpoints behind the router's confirmed
    /// count (a stale answer is a silent correctness violation, an
    /// unavailability error is typed), verify, and make the first
    /// endpoint that answers the new preferred one.
    fn failover_read(
        &self,
        shard: u16,
        message: &Message,
        active: usize,
        mut last: Option<ClusterError>,
    ) -> Result<Message, ClusterError> {
        let set = &self.shards[shard as usize];
        let need = self.state.lock().expect("state lock").num_global;
        let mut candidates = self.probe_shard(shard, need, Some(active));
        candidates.sort_by_key(|&(_, info)| std::cmp::Reverse(info.applied_stamp));
        for (idx, info) in candidates {
            // `>=`, not `==`: an endpoint can legitimately be *ahead* of
            // the router's confirmed count after a lost append ack;
            // stamped idempotency makes reading it safe.
            if info.applied_stamp < need {
                last = Some(self.unavailable(
                    shard,
                    format!(
                        "freshest reachable standby at stamp {} is behind confirmed {need}",
                        info.applied_stamp
                    ),
                ));
                continue;
            }
            let ep = &set.endpoints[idx];
            if let Err(e) = self.verify_endpoint(shard, ep) {
                last = Some(e);
                continue;
            }
            match rpc_on(&ep.client, shard, message) {
                Ok(reply) => {
                    ep.on_success();
                    if set.active.swap(idx, Ordering::AcqRel) != idx {
                        set.failovers.inc();
                    }
                    return Ok(reply);
                }
                Err(e @ ClusterError::ShardUnavailable { .. }) => {
                    ep.on_failure();
                    last = Some(e);
                }
                Err(e) => {
                    ep.on_success();
                    return Err(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            self.unavailable(shard, "no admissible endpoint (breakers open)".into())
        }))
    }

    /// Finds — or creates, via `Promote` — a primary for `shard` whose
    /// applied stamp has reached `need`, makes it the preferred
    /// endpoint, and returns its index.
    ///
    /// A live endpoint already in the primary role wins over promoting
    /// anything (so after a transient partition the router converges
    /// back to the real primary without issuing `Promote`). Otherwise
    /// the freshest caught-up standby is promoted. An endpoint behind
    /// `need` is **never** promoted: asynchronous replication means that
    /// promotion would silently drop acknowledged appends — refusing
    /// with a typed error keeps the loss visible and retryable.
    fn acquire_primary(&self, shard: u16, need: u64) -> Result<usize, ClusterError> {
        let set = &self.shards[shard as usize];
        let mut candidates = self.probe_shard(shard, need, None);
        candidates.sort_by_key(|&(idx, info)| {
            (
                std::cmp::Reverse(info.applied_stamp),
                info.role != Role::Primary,
                idx,
            )
        });
        let mut last: Option<ClusterError> = None;
        let mut best_behind: Option<u64> = None;
        for (idx, info) in candidates {
            if info.applied_stamp < need {
                best_behind =
                    Some(best_behind.map_or(info.applied_stamp, |b| b.max(info.applied_stamp)));
                continue;
            }
            let ep = &set.endpoints[idx];
            if let Err(e) = self.verify_endpoint(shard, ep) {
                last = Some(e);
                continue;
            }
            if info.role != Role::Primary {
                match rpc_on(&ep.client, shard, &Message::Promote) {
                    Ok(Message::ReplStatus {
                        role: Role::Primary,
                        ..
                    }) => ep.on_success(),
                    Ok(other) => {
                        last = Some(ClusterError::Unexpected(format!(
                            "Promote answered with {other:?}"
                        )));
                        continue;
                    }
                    Err(e @ ClusterError::ShardUnavailable { .. }) => {
                        ep.on_failure();
                        last = Some(e);
                        continue;
                    }
                    Err(e) => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            if set.active.swap(idx, Ordering::AcqRel) != idx {
                set.failovers.inc();
            }
            return Ok(idx);
        }
        Err(last.unwrap_or_else(|| {
            let why = match best_behind {
                Some(stamp) => format!(
                    "no caught-up endpoint to promote: freshest reachable at stamp {stamp}, \
                     confirmed progress {need} (refusing lossy promotion)"
                ),
                None => "no reachable endpoint to promote".into(),
            };
            self.unavailable(shard, why)
        }))
    }

    /// Sends one planned record to the shard's primary, redirecting
    /// through [`RouterCore::acquire_primary`] when the preferred
    /// endpoint is gone or answers `NotPrimary` (it was demoted, or the
    /// router failed reads over to a standby earlier). The re-send after
    /// promotion is safe: application dedupes by base stamp, so a record
    /// the dead primary already replicated applies exactly once.
    fn append_record(
        &self,
        shard: u16,
        record: &NodeWalRecord,
        need: u64,
    ) -> Result<(), ClusterError> {
        let set = &self.shards[shard as usize];
        let active = set.active.load(Ordering::Acquire);
        if set.endpoints[active].breaker.allow() {
            let ep = &set.endpoints[active];
            match rpc_on(&ep.client, shard, &Message::Append(record.clone())) {
                Ok(Message::Appended { total, .. }) => {
                    ep.note_applied(total);
                    ep.on_success();
                    return Ok(());
                }
                Ok(other) => {
                    ep.on_success();
                    return Err(ClusterError::Unexpected(format!(
                        "Append answered with {other:?}"
                    )));
                }
                Err(ClusterError::Remote {
                    code: ErrCode::NotPrimary,
                    ..
                }) => {
                    // The endpoint is alive but a standby — fall through
                    // to the promotion path.
                    ep.on_success();
                }
                Err(e @ ClusterError::ShardUnavailable { .. }) => {
                    ep.on_failure();
                    drop(e);
                }
                Err(e) => {
                    ep.on_success();
                    return Err(e);
                }
            }
        }
        let idx = self.acquire_primary(shard, need)?;
        let ep = &set.endpoints[idx];
        match rpc_on(&ep.client, shard, &Message::Append(record.clone())) {
            Ok(Message::Appended { total, .. }) => {
                ep.note_applied(total);
                ep.on_success();
                Ok(())
            }
            Ok(other) => Err(ClusterError::Unexpected(format!(
                "Append answered with {other:?}"
            ))),
            Err(e @ ClusterError::ShardUnavailable { .. }) => {
                ep.on_failure();
                Err(e)
            }
            Err(e) => Err(e),
        }
    }
}

/// The scatter-gather query tier over a shard-per-process cluster.
///
/// Owns the road network (trip-query planning is local — only SPQ
/// primitives cross the wire), the first-edge routing table, and per
/// shard an endpoint list (primary first, then standbys) with automatic
/// failover — see the module docs. Dropping the router stops its
/// background prober thread, if one was configured.
pub struct ClusterRouter {
    network: RoadNetwork,
    engine_config: QueryEngineConfig,
    core: Arc<RouterCore>,
    prober_stop: Arc<AtomicBool>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.prober_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
    }
}

impl ClusterRouter {
    /// Connects to a cluster with one endpoint per shard (no standbys)
    /// using default failover tuning. See
    /// [`ClusterRouter::connect_with_standbys`].
    pub fn connect(
        network: RoadNetwork,
        addrs: &[SocketAddr],
        engine_config: QueryEngineConfig,
        client_config: ClientConfig,
    ) -> Result<Self, ClusterError> {
        let groups: Vec<Vec<SocketAddr>> = addrs.iter().map(|&a| vec![a]).collect();
        Self::connect_with_standbys(
            network,
            &groups,
            engine_config,
            RouterConfig {
                client: client_config,
                ..RouterConfig::default()
            },
        )
    }

    /// Connects to every shard's first endpoint (its primary),
    /// cross-checks the cluster's shape, and assembles the routing tier.
    /// Each group lists one shard's endpoints: the primary first, then
    /// any standbys (probed and verified lazily, on failover or by the
    /// background prober).
    ///
    /// Groups may be listed in any order — each primary reports its
    /// shard id and the constructor sorts them into place. Fails with
    /// [`ClusterError::Inconsistent`] if the primaries disagree on shard
    /// count, global progress, or data span; if any shard is missing or
    /// duplicated; or if the routing table does not match `network`.
    pub fn connect_with_standbys(
        network: RoadNetwork,
        groups: &[Vec<SocketAddr>],
        engine_config: QueryEngineConfig,
        config: RouterConfig,
    ) -> Result<Self, ClusterError> {
        if groups.is_empty() {
            return Err(ClusterError::Inconsistent("no node addresses given".into()));
        }
        if let Some(empty) = groups.iter().position(|group| group.is_empty()) {
            return Err(ClusterError::Inconsistent(format!(
                "shard group {empty} lists no endpoints"
            )));
        }
        let mut metas: Vec<(NodeMeta, Vec<NodeClient>)> = Vec::with_capacity(groups.len());
        for group in groups {
            let clients: Vec<NodeClient> = group
                .iter()
                .map(|&addr| NodeClient::new(addr, config.client.clone()))
                .collect();
            let meta = match rpc_on(&clients[0], 0, &Message::GetMeta)? {
                Message::Meta(meta) => meta,
                other => {
                    return Err(ClusterError::Unexpected(format!(
                        "GetMeta answered with {other:?}"
                    )))
                }
            };
            metas.push((meta, clients));
        }
        let first = metas[0].0.clone();
        let (num_global, span_min, span_max) = (first.num_global, first.span_min, first.span_max);
        for (meta, clients) in &metas {
            if meta.num_shards as usize != groups.len() {
                return Err(ClusterError::Inconsistent(format!(
                    "node {} believes the cluster has {} shards, {} endpoint groups given",
                    clients[0].addr(),
                    meta.num_shards,
                    groups.len()
                )));
            }
            if meta.num_global != num_global {
                return Err(ClusterError::Inconsistent(format!(
                    "diverged global counters: {} vs {}",
                    meta.num_global, num_global
                )));
            }
            if (meta.span_min, meta.span_max) != (span_min, span_max) {
                return Err(ClusterError::Inconsistent(format!(
                    "diverged data spans: [{}, {}] vs [{span_min}, {span_max}]",
                    meta.span_min, meta.span_max
                )));
            }
        }
        metas.sort_by_key(|(meta, _)| meta.shard);
        for (expected, (meta, clients)) in metas.iter().enumerate() {
            if meta.shard as usize != expected {
                return Err(ClusterError::Inconsistent(format!(
                    "shard {expected} missing or duplicated (node {} serves shard {})",
                    clients[0].addr(),
                    meta.shard
                )));
            }
        }
        let num_edges = first.num_edges;
        let routing = match rpc_on(&metas[0].1[0], metas[0].0.shard, &Message::GetRouting)? {
            Message::Routing(routing) => routing,
            other => {
                return Err(ClusterError::Unexpected(format!(
                    "GetRouting answered with {other:?}"
                )))
            }
        };
        if routing.num_shards() != groups.len() {
            return Err(ClusterError::Inconsistent(format!(
                "routing table covers {} shards, cluster has {}",
                routing.num_shards(),
                groups.len()
            )));
        }
        if routing.num_edges() as u64 != num_edges || routing.num_edges() != network.num_edges() {
            return Err(ClusterError::Inconsistent(format!(
                "routing table covers {} edges, nodes report {}, network has {}",
                routing.num_edges(),
                num_edges,
                network.num_edges()
            )));
        }

        let registry = MetricsRegistry::new();
        let probe_failures = registry.counter(
            "tthr_probe_failures_total",
            "Failed endpoint health probes (transport or protocol)",
            &[],
        );
        let trips = registry.counter(
            "tthr_router_trips_total",
            "Trip queries started (rpcs / trips = round trips one trip costs)",
            &[],
        );
        let mut shards = Vec::with_capacity(metas.len());
        for (shard, (_, clients)) in metas.into_iter().enumerate() {
            let shard_label = shard.to_string();
            let failovers = registry.counter(
                "tthr_failovers_total",
                "Preferred-endpoint switches (read failover or append promotion)",
                &[("shard", shard_label.as_str())],
            );
            let rpcs = registry.counter(
                "tthr_router_rpcs_total",
                "Read RPCs routed to the shard (a relaxation round's ladder batch is one)",
                &[("shard", shard_label.as_str())],
            );
            let ladders = registry.counter(
                "tthr_router_ladders_total",
                "Relaxation ladders shipped to the shard inside ladder batches",
                &[("shard", shard_label.as_str())],
            );
            let mut endpoints = Vec::with_capacity(clients.len());
            for (idx, client) in clients.into_iter().enumerate() {
                let addr_label = client.addr().to_string();
                let endpoint = Endpoint {
                    breaker: Breaker::new(config.breaker.clone()),
                    status: Mutex::new(None),
                    // The cross-checks above ran against each group's
                    // first endpoint; the rest verify before first use.
                    verified: AtomicBool::new(idx == 0),
                    breaker_gauge: registry.gauge(
                        "tthr_breaker_state",
                        "Circuit-breaker state per endpoint (0 closed, 1 half-open, 2 open)",
                        &[("endpoint", addr_label.as_str())],
                    ),
                    lag_gauge: registry.gauge(
                        "tthr_repl_lag_records",
                        "Confirmed records the endpoint has not applied yet",
                        &[
                            ("shard", shard_label.as_str()),
                            ("endpoint", addr_label.as_str()),
                        ],
                    ),
                    client,
                };
                endpoint.sync_breaker_gauge();
                endpoints.push(endpoint);
            }
            shards.push(ShardSet {
                endpoints,
                active: AtomicUsize::new(0),
                failovers,
                rpcs,
                ladders,
            });
        }
        let probe_interval = config.probe_interval;
        let core = Arc::new(RouterCore {
            shards,
            routing,
            registry,
            probe_failures,
            trips,
            state: Mutex::new(ClusterState {
                num_global,
                span_min,
                span_max,
            }),
            confirmed: AtomicU64::new(num_global),
        });
        // Seed each primary's status, which `health` reports from.
        for shard in 0..core.shards.len() {
            core.probe_endpoint(shard as u16, 0);
        }
        let prober_stop = Arc::new(AtomicBool::new(false));
        let prober = probe_interval.map(|every| {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&prober_stop);
            std::thread::Builder::new()
                .name("tthr-router-probe".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        core.probe_all();
                        // Sleep in slices so Drop joins promptly.
                        let mut slept = Duration::ZERO;
                        while slept < every && !stop.load(Ordering::Relaxed) {
                            let slice = Duration::from_millis(20).min(every - slept);
                            std::thread::sleep(slice);
                            slept += slice;
                        }
                    }
                })
                .expect("spawn router prober")
        });
        Ok(ClusterRouter {
            network,
            engine_config,
            core,
            prober_stop,
            prober,
        })
    }

    /// Number of shards in the cluster.
    pub fn num_shards(&self) -> usize {
        self.core.shards.len()
    }

    /// Cluster-wide trajectory count the router has confirmed.
    pub fn num_global(&self) -> u64 {
        self.core.confirmed.load(Ordering::Acquire)
    }

    /// The first-edge routing table.
    pub fn routing(&self) -> &ShardRouter {
        &self.core.routing
    }

    /// The router's metrics registry: failovers, breaker states,
    /// replication lag, probe failures.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.core.registry
    }

    /// Renders the router's metrics in Prometheus text exposition format.
    pub fn render_metrics(&self) -> String {
        self.core.registry.render()
    }

    /// Per-node transport counters, one entry per shard, reported for
    /// the shard's currently preferred endpoint.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.core
            .shards
            .iter()
            .enumerate()
            .map(|(shard, set)| {
                let active = set.active.load(Ordering::Acquire);
                let node = &set.endpoints[active].client;
                NodeStats {
                    shard: shard as u16,
                    addr: node.addr(),
                    connects: node.connects(),
                    retries: node.retries(),
                    evicted: node.evicted(),
                }
            })
            .collect()
    }

    /// Per-endpoint breaker states for one shard, in configured order.
    pub fn breaker_states(&self, shard: u16) -> Vec<(SocketAddr, BreakerState)> {
        self.core.shards[shard as usize]
            .endpoints
            .iter()
            .map(|ep| (ep.client.addr(), ep.breaker.state()))
            .collect()
    }

    /// Each shard's preferred endpoint and its last-known status, from
    /// router state alone: no RPC, so a dark shard costs nothing here.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.core
            .shards
            .iter()
            .enumerate()
            .map(|(shard, set)| {
                let ep = &set.endpoints[set.active.load(Ordering::Acquire)];
                ShardHealth {
                    shard: shard as u16,
                    addr: ep.client.addr(),
                    status: *ep.status.lock().expect("status lock"),
                }
            })
            .collect()
    }

    /// Asks every shard's preferred endpoint to rotate its snapshot
    /// (compacting its WAL).
    pub fn snapshot_all(&self) -> Result<(), ClusterError> {
        for shard in 0..self.core.shards.len() as u16 {
            match self.core.query(shard, &Message::Snapshot)? {
                Message::Ok => {}
                other => {
                    return Err(ClusterError::Unexpected(format!(
                        "Snapshot answered with {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn shard_for(&self, spq: &Spq) -> u16 {
        self.core.routing.shard_of(spq.path.first()) as u16
    }

    /// `getTravelTimes` routed to the owning shard — byte-identical to
    /// the in-process sharded index by the first-edge exactness argument.
    pub fn travel_times(&self, spq: &Spq) -> Result<TravelTimes, ClusterError> {
        let shard = self.shard_for(spq);
        match self.core.query(shard, &Message::TravelTimes(spq.clone()))? {
            Message::TravelTimesResult { values, fallback } => Ok(TravelTimes {
                values: tt_values(values),
                fallback,
            }),
            other => Err(ClusterError::Unexpected(format!(
                "TravelTimes answered with {other:?}"
            ))),
        }
    }

    /// A whole relaxation ladder in **one** RPC to the owning shard — a
    /// ladder batch of one; every level keeps the path, so every level
    /// routes there — byte-identical to the in-process sharded index's
    /// ladder, which is itself pinned to the level-by-level loop.
    pub fn travel_times_ladder(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
    ) -> Result<(usize, TravelTimes), ClusterError> {
        let items = vec![(spq.clone(), levels.to_vec())];
        let mut answers = self.ladder_batch(self.shard_for(spq), items)?;
        Ok(answers.pop().expect("one answer per item"))
    }

    /// One `LadderBatch` RPC: `items` — all owned by `shard`, at most
    /// [`MAX_LADDER_BATCH`] of them — answered in item order under one
    /// read guard of the node. A reply that does not hold exactly one
    /// in-range level per item is [`ClusterError::Unexpected`].
    fn ladder_batch(
        &self,
        shard: u16,
        items: Vec<LadderRequest>,
    ) -> Result<Vec<(usize, TravelTimes)>, ClusterError> {
        self.core.shards[shard as usize]
            .ladders
            .add(items.len() as u64);
        let heights: Vec<usize> = items.iter().map(|(_, levels)| levels.len()).collect();
        match self.core.query(shard, &Message::LadderBatch { items })? {
            Message::LadderBatchResult { results }
                if results.len() == heights.len()
                    && results
                        .iter()
                        .zip(&heights)
                        .all(|((level, ..), &height)| (*level as usize) < height) =>
            {
                Ok(results
                    .into_iter()
                    .map(|(level, values, fallback)| {
                        let values = tt_values(values);
                        (level as usize, TravelTimes { values, fallback })
                    })
                    .collect())
            }
            other => Err(ClusterError::Unexpected(format!(
                "LadderBatch of ladders with {heights:?} levels answered with {other:?}"
            ))),
        }
    }

    /// Capped exact count routed to the owning shard.
    pub fn count_matching(&self, spq: &Spq, cap: u32) -> Result<usize, ClusterError> {
        let shard = self.shard_for(spq);
        match self.core.query(
            shard,
            &Message::Count {
                spq: spq.clone(),
                cap,
            },
        )? {
            Message::CountResult(n) => Ok(n as usize),
            other => Err(ClusterError::Unexpected(format!(
                "Count answered with {other:?}"
            ))),
        }
    }

    /// Cardinality estimate routed to the owning shard.
    pub fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> Result<f64, ClusterError> {
        let shard = self.shard_for(spq);
        match self.core.query(
            shard,
            &Message::Estimate {
                spq: spq.clone(),
                mode,
            },
        )? {
            Message::EstimateResult(v) => Ok(v),
            other => Err(ClusterError::Unexpected(format!(
                "Estimate answered with {other:?}"
            ))),
        }
    }

    /// The σ fallback interval `[min(data_min, 0), data_max + 1)`,
    /// mirroring the sharded index's global-span bookkeeping.
    pub fn full_interval(&self) -> TimeInterval {
        let state = self.core.state.lock().expect("state lock");
        TimeInterval::fixed(state.span_min.min(0), state.span_max + 1)
    }

    /// Runs the full trip-query driver (Procedure 6) over the cluster:
    /// planning, splitting, and estimator gating happen locally; every
    /// SPQ primitive the engine issues is routed to its owning shard.
    ///
    /// Any node failure mid-query aborts the whole trip query with the
    /// first error — never a partial answer.
    pub fn trip_query(&self, spq: &Spq) -> Result<TripQuery, ClusterError> {
        self.core.trips.inc();
        let backend = RemoteBackend {
            cluster: self,
            error: RefCell::new(None),
        };
        let engine = QueryEngine::new(&backend, &self.network, self.engine_config.clone());
        let result = engine.trip_query(spq);
        match backend.error.into_inner() {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    /// Appends a batch cluster-wide: plans one [`NodeWalRecord`] per
    /// shard at the current global base stamp and requires **every**
    /// shard's acknowledgement before bumping the router's counters.
    /// A shard whose primary died redirects through promotion — see
    /// the module docs; a record retried across that still applies
    /// exactly once thanks to base-stamp idempotency.
    ///
    /// `base` is the caller's optional idempotency stamp — the global
    /// trajectory count it believes the cluster holds. It is compared
    /// under the same lock that assigns the batch its ids, so of any
    /// number of concurrent callers carrying one stamp exactly one
    /// appends; the rest (and any stale or future stamp) get a
    /// [`ClusterError::WalGap`] and nothing is sent to any node.
    ///
    /// Returns the number of trajectories appended. On partial failure
    /// the counters stay put; because record application is idempotent
    /// by base stamp, simply calling `append_batch` again with the same
    /// batch heals the cluster (nodes that already applied skip, the
    /// rest catch up).
    pub fn append_batch(
        &self,
        base: Option<u64>,
        trajectories: &[(UserId, Vec<TrajEntry>)],
    ) -> Result<u64, ClusterError> {
        let mut state = self.core.state.lock().expect("state lock");
        if let Some(found) = base.filter(|&b| b != state.num_global) {
            return Err(ClusterError::WalGap {
                expected: state.num_global,
                found,
            });
        }
        let records: Vec<NodeWalRecord> = plan_node_records(
            &self.core.routing,
            state.num_global,
            state.span_min,
            state.span_max,
            trajectories,
        )
        .map_err(|e: StoreError| ClusterError::Invalid(e.to_string()))?;
        let need = state.num_global;
        for (shard, record) in records.iter().enumerate() {
            self.core.append_record(shard as u16, record, need)?;
        }
        let planned = &records[0];
        state.num_global = planned.new_total;
        state.span_min = planned.span_min;
        state.span_max = planned.span_max;
        self.core
            .confirmed
            .store(planned.new_total, Ordering::Release);
        Ok(trajectories.len() as u64)
    }
}

/// One request/reply exchange with typed error mapping: transport
/// exhaustion becomes [`ClusterError::ShardUnavailable`], protocol
/// damage becomes [`ClusterError::Frame`], and a well-formed `Err` frame
/// becomes [`ClusterError::Remote`] / [`ClusterError::WalGap`].
fn rpc_on(node: &NodeClient, shard: u16, message: &Message) -> Result<Message, ClusterError> {
    match node.request(message) {
        Ok(Message::Err {
            code: ErrCode::WalGap,
            expected,
            found,
            ..
        }) => Err(ClusterError::WalGap { expected, found }),
        Ok(Message::Err { code, message, .. }) => Err(ClusterError::Remote { code, message }),
        Ok(reply) => Ok(reply),
        Err(WireError::Io(source)) => Err(ClusterError::ShardUnavailable {
            shard,
            addr: node.addr(),
            source,
        }),
        Err(WireError::Frame(e)) => Err(ClusterError::Frame(e)),
    }
}

fn tt_values(values: Vec<f64>) -> TtValues {
    match values.len() {
        0 => TtValues::EMPTY,
        1 => TtValues::one(values[0]),
        _ => TtValues::from(values),
    }
}

// ---------------------------------------------------------------------------
// RemoteBackend
// ---------------------------------------------------------------------------

/// [`IndexBackend`] over the cluster for one trip query.
///
/// Trait methods cannot return `Result`, so the first [`ClusterError`]
/// is parked in `error` and a harmless *non-empty* dummy is returned:
/// an empty answer would make σ relax the interval indefinitely, while
/// a single fallback value / saturated count / infinite estimate makes
/// the engine finish promptly. Once an error is parked the trip is lost
/// — the caller discards the poisoned result — so every later call is
/// answered with the dummy **without an RPC**: against a silent shard
/// each of those would otherwise cost a full retry budget for nothing.
struct RemoteBackend<'a> {
    cluster: &'a ClusterRouter,
    error: RefCell<Option<ClusterError>>,
}

/// The non-empty dummy travel times of a failed trip.
fn dummy_times() -> TravelTimes {
    TravelTimes {
        values: TtValues::one(1.0),
        fallback: true,
    }
}

impl RemoteBackend<'_> {
    /// Runs `rpc` unless the trip has already failed; parks its error.
    /// `None` means "answer with the dummy".
    fn call<T>(&self, rpc: impl FnOnce(&ClusterRouter) -> Result<T, ClusterError>) -> Option<T> {
        if self.error.borrow().is_some() {
            return None;
        }
        rpc(self.cluster)
            .map_err(|e| *self.error.borrow_mut() = Some(e))
            .ok()
    }
}

impl TravelTimeProvider for RemoteBackend<'_> {
    fn travel_times_with(&self, spq: &Spq, _scratch: &mut SearchScratch) -> TravelTimes {
        self.call(|cluster| cluster.travel_times(spq))
            .unwrap_or_else(dummy_times)
    }

    /// One `LadderBatch` RPC per shard the round touches (in chunks of
    /// [`MAX_LADDER_BATCH`]) instead of one RPC per ladder; the batches
    /// go out one after the other. A ladder longer than the wire admits
    /// (an outsized `interval_sizes` configuration) keeps the
    /// level-by-level loop. The first failed batch parks its error and
    /// every ladder from there on gets the dummy.
    fn travel_times_ladders(
        &self,
        requests: &[LadderRequest],
        scratch: &mut SearchScratch,
    ) -> Vec<(usize, TravelTimes)> {
        let mut answers: Vec<(usize, TravelTimes)> = vec![(0, dummy_times()); requests.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.cluster.num_shards()];
        for (i, (spq, levels)) in requests.iter().enumerate() {
            if levels.len() > MAX_LADDER_LEVELS {
                answers[i] = ladder_sequential(self, spq, levels, scratch);
            } else {
                by_shard[self.cluster.shard_for(spq) as usize].push(i);
            }
        }
        for (shard, members) in by_shard.iter().enumerate() {
            for chunk in members.chunks(MAX_LADDER_BATCH) {
                let Some(batch) = self.call(|cluster| {
                    let items = chunk.iter().map(|&i| requests[i].clone()).collect();
                    cluster.ladder_batch(shard as u16, items)
                }) else {
                    continue;
                };
                scratch.trace.ladder_batches += 1;
                scratch.trace.ladders += chunk.len() as u64;
                for (&i, answer) in chunk.iter().zip(batch) {
                    answers[i] = answer;
                }
            }
        }
        answers
    }
}

impl IndexBackend for RemoteBackend<'_> {
    fn count_matching_with(&self, spq: &Spq, cap: u32, _scratch: &mut SearchScratch) -> usize {
        self.call(|cluster| cluster.count_matching(spq, cap))
            .unwrap_or(cap as usize)
    }

    fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> f64 {
        self.call(|cluster| cluster.estimate(spq, mode))
            .unwrap_or(f64::INFINITY)
    }

    fn full_interval(&self) -> TimeInterval {
        self.cluster.full_interval()
    }
}

// ---------------------------------------------------------------------------
// In-process plumbing tests (cluster-level coverage lives in the
// repo-root differential suites).
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn localhost(listener: &TcpListener) -> SocketAddr {
        listener.local_addr().expect("ephemeral addr")
    }

    /// A one-shot stub node: accepts one connection, answers each
    /// request with the next canned reply, then closes.
    fn stub_node(replies: Vec<Vec<u8>>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = localhost(&listener);
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            for reply in replies {
                // Drain one request frame (length-prefixed) first.
                let mut header = [0u8; 8];
                if conn.read_exact(&mut header).is_err() {
                    return;
                }
                let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
                let mut body = vec![0u8; len as usize];
                if conn.read_exact(&mut body).is_err() {
                    return;
                }
                if conn.write_all(&reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    fn quick_config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(200),
            retries: 2,
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn request_round_trips_against_a_stub_node() {
        let (addr, handle) = stub_node(vec![tthr_rpc::encode_frame(&Message::CountResult(7))]);
        let client = NodeClient::new(addr, quick_config());
        let reply = client.request(&Message::Health).expect("reply");
        assert_eq!(reply, Message::CountResult(7));
        assert_eq!(client.connects(), 1);
        assert_eq!(client.retries(), 0);
        handle.join().unwrap();
    }

    #[test]
    fn unreachable_node_exhausts_retries_with_io_error() {
        // Bind-then-drop guarantees a connection-refused port.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            localhost(&listener)
        };
        let client = NodeClient::new(addr, quick_config());
        match client.request(&Message::Health) {
            Err(WireError::Io(_)) => {}
            other => panic!("expected transport failure, got {other:?}"),
        }
        assert_eq!(client.retries(), 2, "both retries were spent");
    }

    #[test]
    fn garbage_reply_is_a_typed_frame_error_without_retry() {
        // A "frame" whose CRC cannot match: valid length, corrupt body.
        let mut garbage = tthr_rpc::encode_frame(&Message::Ok);
        let last = garbage.len() - 1;
        garbage[last] ^= 0xff;
        let (addr, handle) = stub_node(vec![garbage]);
        let client = NodeClient::new(addr, quick_config());
        match client.request(&Message::Health) {
            Err(WireError::Frame(_)) => {}
            other => panic!("expected frame error, got {other:?}"),
        }
        assert_eq!(client.retries(), 0, "protocol errors are not retried");
        handle.join().unwrap();
    }

    #[test]
    fn remote_err_frames_map_to_typed_cluster_errors() {
        let walgap = tthr_rpc::encode_frame(&Message::Err {
            code: ErrCode::WalGap,
            expected: 10,
            found: 7,
            message: "gap".into(),
        });
        let (addr, handle) = stub_node(vec![walgap]);
        let client = NodeClient::new(addr, quick_config());
        match rpc_on(&client, 3, &Message::Health) {
            Err(ClusterError::WalGap {
                expected: 10,
                found: 7,
            }) => {}
            other => panic!("expected WalGap, got {other:?}"),
        }
        handle.join().unwrap();
    }

    /// `health` answers from router state: the connect-time `Health`
    /// seeds it, an `Appended` ack advances its applied stamp, and it
    /// sends nothing (the stub has no reply left).
    #[test]
    fn health_is_seeded_at_connect_and_refreshed_by_append_acks() {
        let network = tthr_network::examples::example_network();
        let meta = NodeMeta {
            shard: 0,
            num_shards: 1,
            num_edges: network.num_edges() as u64,
            num_global: 5,
            num_members: 5,
            num_partitions: 1,
            span_min: 0,
            span_max: 100,
        };
        let (role, applied_stamp, snapshot_stamp) = (Role::Primary, 5, 3);
        let replies = [
            Message::Meta(meta),
            Message::Routing(ShardRouter::build(&network, 1)),
            Message::ReplStatus {
                role,
                applied_stamp,
                snapshot_stamp,
            },
            Message::Appended {
                appended: 0,
                total: 9,
            },
        ];
        let (addr, stub) = stub_node(replies.iter().map(tthr_rpc::encode_frame).collect());
        let config = QueryEngineConfig::default();
        let router = ClusterRouter::connect(network, &[addr], config, quick_config()).unwrap();
        let seeded = ReplInfo {
            role,
            applied_stamp,
            snapshot_stamp,
        };
        assert_eq!(router.health()[0].status, Some(seeded));
        router.append_batch(Some(5), &[]).expect("append");
        let acked = ReplInfo {
            applied_stamp: 9,
            ..seeded
        };
        assert_eq!(router.health()[0].status, Some(acked));
        assert_eq!((router.health()[0].addr, router.num_global()), (addr, 5));
        drop(router);
        stub.join().unwrap();
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let breaker = Breaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(10),
        });
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.allow());
        breaker.on_failure();
        assert_eq!(
            breaker.state(),
            BreakerState::Closed,
            "one failure is below the threshold"
        );
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow(), "open breaker rejects before the cooldown");
        std::thread::sleep(Duration::from_millis(15));
        assert!(
            breaker.allow(),
            "cooldown elapsed: half-open trial admitted"
        );
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "failed trial re-opens");
        std::thread::sleep(Duration::from_millis(15));
        assert!(breaker.allow());
        breaker.on_success();
        assert_eq!(
            breaker.state(),
            BreakerState::Closed,
            "successful trial closes"
        );
        assert!(breaker.allow());
    }

    #[test]
    fn breaker_counts_consecutive_failures_not_cumulative_ones() {
        let breaker = Breaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(10),
        });
        breaker.on_failure();
        breaker.on_failure();
        breaker.on_success();
        breaker.on_failure();
        breaker.on_failure();
        assert_eq!(
            breaker.state(),
            BreakerState::Closed,
            "a success resets the consecutive-failure count"
        );
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
    }
}
