//! Answer checking: every reply is compared with an oracle — the
//! single-threaded engine on a separately built monolithic index, encoded
//! with the same `wire` function the server uses.

use std::net::SocketAddr;

use tthr::core::{QueryEngine, QueryEngineConfig, SntIndex, Spq};
use tthr::network::RoadNetwork;
use tthr::server::wire;

use crate::http::Client;
use crate::world::{encode_post, Endpoint, Stream};

/// The oracle's reply body for one request.
pub fn oracle_body(
    endpoint: Endpoint,
    index: &SntIndex,
    engine: &QueryEngine<'_>,
    spq: &Spq,
) -> String {
    match endpoint {
        Endpoint::Spq => wire::encode_travel_times(&index.get_travel_times(spq)),
        Endpoint::Trip => wire::encode_trip(&engine.trip_query(spq)),
    }
}

/// Answers every distinct request of the stream with the oracle, keeping
/// the body length for all of them and the body itself for the ids in
/// `keep_bodies` (the ones the pre-check compares byte-for-byte).
pub fn fill_oracle(
    stream: &mut Stream,
    index: &SntIndex,
    network: &RoadNetwork,
    keep_bodies: &[u32],
) {
    let endpoint = stream.endpoint;
    let half = stream.requests.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        for chunk in stream.requests.chunks_mut(half) {
            scope.spawn(move || {
                let engine = QueryEngine::new(index, network, QueryEngineConfig::default());
                for r in chunk {
                    let body = oracle_body(endpoint, index, &engine, &r.spq);
                    r.expect_len = body.len();
                    r.expect_body = Some(body.into_bytes());
                }
            });
        }
    });
    let mut keep = vec![false; stream.requests.len()];
    for &id in keep_bodies {
        keep[id as usize] = true;
    }
    for (r, keep) in stream.requests.iter_mut().zip(keep) {
        if !keep {
            r.expect_body = None;
        }
    }
}

/// A tally of checked operations: how many, how many failed, and why the
/// first one did.
#[derive(Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checked {
    pub fn add(&mut self, attempted: u64, failed: u64, first_failure: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure = first_failure;
        }
    }

    pub fn merge(&mut self, other: Checked) {
        self.add(other.attempted, other.failed, other.first_failure);
    }

    fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(why());
            }
        }
    }
}

/// Replays `ids` through the tier and compares every reply's bytes with
/// the kept oracle body.
pub fn precheck(addr: SocketAddr, stream: &Stream, ids: &[u32]) -> std::io::Result<Checked> {
    let mut client = Client::connect(addr)?;
    let mut out = Checked::default();
    for &id in ids {
        let request = &stream.requests[id as usize];
        let want = request
            .expect_body
            .as_deref()
            .expect("oracle body kept for pre-checked ids");
        let status = client.roundtrip(&request.http)?;
        out.record(status == 200 && client.body() == want, || {
            format!("pre-check request {id}: status {status}, reply differs from the oracle")
        });
    }
    Ok(out)
}

/// Compares the tier's `/spq` replies for `spqs` with a reference index
/// that applied the same appends directly.
pub fn compare_with(
    addr: SocketAddr,
    reference: &SntIndex,
    spqs: &[&Spq],
) -> std::io::Result<Checked> {
    let mut client = Client::connect(addr)?;
    let mut out = Checked::default();
    for (i, spq) in spqs.iter().enumerate() {
        let want = wire::encode_travel_times(&reference.get_travel_times(spq));
        let request = encode_post("/spq", wire::encode_spq(spq).as_bytes());
        let status = client.roundtrip(&request)?;
        out.record(status == 200 && client.body() == want.as_bytes(), || {
            format!(
                "post-append query {i}: status {status}, reply differs from the reference index"
            )
        });
    }
    Ok(out)
}
