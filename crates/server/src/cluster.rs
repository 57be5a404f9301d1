//! Cluster mode: the HTTP front-end for a shard-per-process cluster.
//!
//! Serves the same JSON wire format as the single-process server
//! ([`crate::wire`]) but executes every request through a
//! [`ClusterRouter`] — planning locally, scattering SPQ primitives to
//! shard nodes over the binary protocol ([`crate::node`]).
//!
//! A blocking thread-per-connection loop, like the node side: the router
//! tier fronts a handful of operators and test harnesses, not the open
//! internet, so the epoll reactor would buy nothing here.
//!
//! Failure mapping (the part the fault suite pins):
//!
//! | cluster failure                  | HTTP |
//! |----------------------------------|------|
//! | shard node unreachable           | 503  |
//! | append base-stamp conflict       | 409  |
//! | node rejected the request        | 400  |
//! | protocol damage / node confusion | 502  |

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use tthr_client::{ClusterError, ClusterRouter};
use tthr_rpc::ErrCode;

use crate::http::{self, Limits, Parse, Request};
use crate::{json, wire};

/// Request-size limits for the cluster front-end (generous body cap:
/// append batches carry whole trajectories).
fn cluster_limits() -> Limits {
    Limits {
        max_head_bytes: 8 << 10,
        max_body_bytes: 16 << 20,
    }
}

/// Largest `/batch` request accepted, mirroring the single-process
/// server's default.
const MAX_BATCH_QUERIES: usize = 1024;

/// Serves the cluster HTTP front-end on `listener`, blocking forever:
/// one thread per connection, keep-alive supported.
pub fn serve_cluster(listener: TcpListener, router: ClusterRouter) -> std::io::Result<()> {
    let router = Arc::new(router);
    loop {
        let (conn, _) = listener.accept()?;
        let router = Arc::clone(&router);
        std::thread::spawn(move || serve_cluster_conn(conn, &router));
    }
}

/// One connection's request loop — public so tests and embedders can
/// drive it on their own listener.
pub fn serve_cluster_conn(mut conn: TcpStream, router: &ClusterRouter) {
    let _ = conn.set_nodelay(true);
    let limits = cluster_limits();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    loop {
        match http::try_parse(&buf, &limits) {
            Ok(Parse::Done(request, used)) => {
                buf.drain(..used);
                let keep_alive = request.keep_alive;
                // `/metrics` is the one non-JSON endpoint: the router's
                // registry (failovers, breaker states, replication lag)
                // in Prometheus text exposition format.
                let response =
                    if (request.method.as_str(), request.target.as_str()) == ("GET", "/metrics") {
                        http::encode_response_with_content_type(
                            200,
                            router.render_metrics().as_bytes(),
                            keep_alive,
                            None,
                            http::PROMETHEUS_CONTENT_TYPE,
                        )
                    } else {
                        let (status, body) = handle(router, &request);
                        http::encode_response(status, body.as_bytes(), keep_alive, None)
                    };
                if std::io::Write::write_all(&mut conn, &response).is_err() || !keep_alive {
                    return;
                }
            }
            Ok(Parse::Incomplete) => match conn.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            },
            Err(e) => {
                let body = wire::encode_error(e.reason());
                let response = http::encode_response(e.status(), body.as_bytes(), false, None);
                let _ = std::io::Write::write_all(&mut conn, &response);
                return;
            }
        }
    }
}

/// Decodes, executes, and encodes one request against the cluster.
fn handle(router: &ClusterRouter, request: &Request) -> (u16, String) {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/health") => match router.health() {
            Ok(reports) => {
                let replication: Vec<String> = reports
                    .iter()
                    .map(|h| {
                        format!(
                            "{{\"shard\":{},\"addr\":\"{}\",\"role\":\"{}\",\
                             \"applied_stamp\":{},\"snapshot_stamp\":{}}}",
                            h.shard, h.addr, h.role, h.applied_stamp, h.snapshot_stamp
                        )
                    })
                    .collect();
                (
                    200,
                    format!(
                        "{{\"status\":\"ok\",\"shards\":{},\"trajectories\":{},\
                         \"replication\":[{}]}}",
                        router.num_shards(),
                        router.num_global(),
                        replication.join(",")
                    ),
                )
            }
            Err(e) => (status_of(&e), wire::encode_error(&e.to_string())),
        },
        ("POST", "/spq") => with_spq(router, &request.body, |router, spq| {
            router
                .travel_times(spq)
                .map(|tt| wire::encode_travel_times(&tt))
        }),
        ("POST", "/trip") => with_spq(router, &request.body, |router, spq| {
            router.trip_query(spq).map(|trip| wire::encode_trip(&trip))
        }),
        ("POST", "/batch") => {
            let parsed = match json::parse(&request.body) {
                Ok(v) => v,
                Err(e) => return (400, wire::encode_error(&e.to_string())),
            };
            let queries = match wire::decode_batch(
                &parsed,
                router.routing().num_edges(),
                MAX_BATCH_QUERIES,
            ) {
                Ok(q) => q,
                Err(e) => return (400, wire::encode_error(&e)),
            };
            let mut trips = Vec::with_capacity(queries.len());
            for spq in &queries {
                match router.trip_query(spq) {
                    Ok(trip) => trips.push(trip),
                    Err(e) => return (status_of(&e), wire::encode_error(&e.to_string())),
                }
            }
            (200, wire::encode_trips(&trips))
        }
        ("POST", "/append") => {
            let parsed = match json::parse(&request.body) {
                Ok(v) => v,
                Err(e) => return (400, wire::encode_error(&e.to_string())),
            };
            match wire::decode_append(&parsed) {
                // The stamp is checked by the router under the lock that
                // assigns ids; a conflict comes back as `WalGap` → 409.
                Ok((base, payload)) => match router.append_batch(base, &payload) {
                    Ok(appended) => (200, wire::encode_appended(appended as usize)),
                    Err(e) => (status_of(&e), wire::encode_error(&e.to_string())),
                },
                Err(e) => (400, wire::encode_error(&e)),
            }
        }
        (_, "/health" | "/metrics" | "/spq" | "/trip" | "/batch" | "/append") => {
            (405, wire::encode_error("method not allowed"))
        }
        _ => (404, wire::encode_error("no such endpoint")),
    }
}

fn with_spq(
    router: &ClusterRouter,
    body: &[u8],
    run: impl FnOnce(&ClusterRouter, &tthr_core::Spq) -> Result<String, ClusterError>,
) -> (u16, String) {
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, wire::encode_error(&e.to_string())),
    };
    let spq = match wire::decode_spq(&parsed, router.routing().num_edges()) {
        Ok(q) => q,
        Err(e) => return (400, wire::encode_error(&e)),
    };
    match run(router, &spq) {
        Ok(body) => (200, body),
        Err(e) => (status_of(&e), wire::encode_error(&e.to_string())),
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
