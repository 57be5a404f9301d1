//! Cluster mode: a [`ClusterRouter`] behind the one HTTP front door.
//!
//! [`serve_router`](crate::serve_router) serves the router on the
//! single-process server's reactor, request handler and wire format
//! ([`crate::wire`]), with its in-flight bound, shedding, reaping and
//! graceful drain; the router plans locally and scatters SPQ primitives
//! to shard nodes ([`crate::node`]). Requests run on the router's own
//! pool, a `/batch`'s trips in parallel. There is no result cache,
//! `/stats` or `/debug/slow`, and `/health` sends no RPC.
//!
//! Failure mapping ([`status_of`]; `tests/cluster_faults.rs` pins it over
//! HTTP). A `/batch` answers the status of its first failing trip, in
//! input order, and never a partial body.
//!
//! | cluster failure                  | HTTP |
//! |----------------------------------|------|
//! | shard node unreachable           | 503  |
//! | append base-stamp conflict       | 409  |
//! | node rejected the request        | 400  |
//! | protocol damage / node confusion | 502  |

use std::net::TcpListener;
use std::sync::Arc;

use tthr_client::{ClusterError, ClusterRouter};
use tthr_core::{Spq, TravelTimes, TripQuery};
use tthr_rpc::ErrCode;
use tthr_service::pool::ThreadPool;

use crate::{mirror_server_metrics, Api, Payload, Refusal, ServerConfig, ServerMetrics};

/// The router tier's server configuration: a 16 MiB body cap — append
/// batches carry whole trajectories.
pub fn router_config() -> ServerConfig {
    ServerConfig {
        max_body_bytes: 16 << 20,
        ..ServerConfig::default()
    }
}

/// Serves the cluster HTTP front-end on `listener` with
/// [`router_config`], blocking forever.
pub fn serve_cluster(listener: TcpListener, router: ClusterRouter) -> std::io::Result<()> {
    let api = Arc::new(RouterApi::new(Arc::new(router)));
    let _server = crate::serve_api(api, listener, router_config())?;
    loop {
        std::thread::park();
    }
}

/// The HTTP status a cluster failure maps to.
pub fn status_of(e: &ClusterError) -> u16 {
    match e {
        ClusterError::ShardUnavailable { .. } => 503,
        ClusterError::WalGap { .. } => 409,
        ClusterError::Invalid(_) => 400,
        ClusterError::Remote {
            code: ErrCode::BadRequest,
            ..
        } => 400,
        ClusterError::Remote { .. }
        | ClusterError::Frame(_)
        | ClusterError::Inconsistent(_)
        | ClusterError::Unexpected(_) => 502,
    }
}

fn refusal(e: ClusterError) -> Refusal {
    (status_of(&e), e.to_string())
}

/// The router tier: a [`ClusterRouter`] and the pool its requests run on,
/// one worker per CPU (the `ServiceConfig::num_threads = 0` rule).
pub(crate) struct RouterApi {
    router: Arc<ClusterRouter>,
    pool: ThreadPool,
}

impl RouterApi {
    pub(crate) fn new(router: Arc<ClusterRouter>) -> RouterApi {
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        RouterApi {
            router,
            pool: ThreadPool::new(threads),
        }
    }
}

impl Api for RouterApi {
    fn num_edges(&self) -> usize {
        self.router.routing().num_edges()
    }

    fn spq(&self, query: &Spq) -> Result<TravelTimes, Refusal> {
        self.router.travel_times(query).map_err(refusal)
    }

    fn trip(&self, query: &Spq) -> Result<TripQuery, Refusal> {
        self.router.trip_query(query).map_err(refusal)
    }

    fn batch(&self, queries: &[Spq]) -> Result<Vec<TripQuery>, Refusal> {
        let jobs: Vec<_> = queries
            .iter()
            .map(|query| {
                let (router, query) = (Arc::clone(&self.router), query.clone());
                move || router.trip_query(&query)
            })
            .collect();
        let trips: Result<_, _> = self.pool.run_all(jobs).into_iter().collect();
        trips.map_err(refusal)
    }

    /// The router checks the stamp under the lock that assigns ids.
    fn append(&self, base: Option<u64>, payload: &Payload) -> Result<usize, Refusal> {
        let appended = self.router.append_batch(base, payload).map_err(refusal)?;
        Ok(appended as usize)
    }

    fn execute(&self, job: Box<dyn FnOnce() + Send>) {
        self.pool.execute(job);
    }

    /// Router state only: the confirmed trajectory count, and each
    /// shard's preferred endpoint with the stamps it last reported.
    fn health(&self) -> String {
        let replication: Vec<String> = self
            .router
            .health()
            .iter()
            .map(|h| match h.status {
                Some(s) => format!(
                    "{{\"shard\":{},\"addr\":\"{}\",\"role\":\"{}\",\
                     \"applied_stamp\":{},\"snapshot_stamp\":{}}}",
                    h.shard, h.addr, s.role, s.applied_stamp, s.snapshot_stamp
                ),
                None => format!("{{\"shard\":{},\"addr\":\"{}\"}}", h.shard, h.addr),
            })
            .collect();
        format!(
            "{{\"status\":\"ok\",\"shards\":{},\"trajectories\":{},\"replication\":[{}]}}",
            self.router.num_shards(),
            self.router.num_global(),
            replication.join(",")
        )
    }

    fn metrics(&self, server: &ServerMetrics) -> String {
        mirror_server_metrics(self.router.metrics_registry(), server);
        self.router.render_metrics()
    }
}
