//! Front-end battery for the reactor's serving contracts under many
//! concurrent connections: bounded in-flight work, `503` + `Retry-After`
//! shedding, exactly-once in-order answers and keep-alive survival. The
//! server runs one reactor (`ServerConfig::reactors` may only be 0 or 1),
//! so every connection here shares it.
//!
//! Also home of the binary `/spq` fast-path contract: a
//! `application/x-tthr-frame` request decodes straight into the `tthr-rpc`
//! codec and answers bit-identically to both the JSON path and the
//! in-process oracle; malformed frames come back as `400` error frames.

mod common;

use common::http::{encode_frame_request, encode_request, post, HttpClient};
use common::{prefix_set, value_bits};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tthr::core::{SntConfig, SntIndex, Spq, TimeInterval};
use tthr::datagen::sample_query_trajectories;
use tthr::rpc::{decode_frame, encode_frame, Decode, ErrCode, Message};
use tthr::server::http::FRAME_CONTENT_TYPE;
use tthr::server::{serve, wire, ServerConfig, ServerHandle};
use tthr::service::{QueryService, ServiceConfig};
use tthr::trajectory::{TrajId, TrajectorySet};

/// A served world behind the server's one reactor thread, plus an
/// identically built in-process oracle and the full trajectory set for
/// sampling.
fn boot(config: ServerConfig) -> (ServerHandle, QueryService<SntIndex>, TrajectorySet) {
    let (syn, set) = common::small_world();
    let initial = prefix_set(&set, set.len());
    let network = Arc::new(syn.network);
    let build = || {
        QueryService::new(
            SntIndex::build(&network, &initial, SntConfig::default()),
            Arc::clone(&network),
            ServiceConfig {
                num_threads: 2,
                ..ServiceConfig::default()
            },
        )
    };
    let oracle = build();
    let server = serve(build(), "127.0.0.1:0", config).expect("boot server");
    (server, oracle, set)
}

/// A query whose path certainly matches data.
fn sure_hit(set: &TrajectorySet) -> Spq {
    let tr = set.get(TrajId(0));
    Spq::new(
        tr.path().sub_path(0..tr.len().min(3)),
        TimeInterval::fixed(0, i64::MAX / 4),
    )
}

/// A mixed SPQ workload sampled from the history.
fn workload(set: &TrajectorySet) -> Vec<Spq> {
    let ids = sample_query_trajectories(set, 1.0, 8, 3);
    ids.iter()
        .step_by(7)
        .take(12)
        .enumerate()
        .map(|(i, &id)| {
            let tr = set.get(id);
            Spq::new(
                tr.path(),
                TimeInterval::periodic_around(tr.start_time(), 1800),
            )
            .with_beta(5 + (i as u32 % 3) * 5)
        })
        .collect()
}

/// One frame request → one decoded frame response.
fn frame_round_trip(addr: SocketAddr, frame: &[u8]) -> (u16, Message) {
    let mut client = HttpClient::connect(addr);
    client.send_raw(&encode_frame_request(frame));
    let response = client.read_response();
    assert_eq!(
        response.header("content-type"),
        Some(FRAME_CONTENT_TYPE),
        "binary in, binary out — even for errors"
    );
    let Ok(Decode::Done { message, consumed }) = decode_frame(&response.body) else {
        panic!("response body must be one complete frame");
    };
    assert_eq!(consumed, response.body.len(), "exactly one frame");
    (response.status, message)
}

/// A pipelined burst from many connections past `queue_cap` +
/// `shed_watermark` keeps at most `queue_cap` requests in flight, sheds
/// the excess with `503` + `Retry-After`, answers every request exactly
/// once and in order, and recovers to normal service.
#[test]
fn flood_across_reactors_bounds_inflight_and_sheds() {
    const CONNS: usize = 12;
    const PER_CONN: usize = 3;
    let config = ServerConfig {
        queue_cap: 2,
        shed_watermark: 3,
        worker_delay: Some(Duration::from_millis(25)),
        ..ServerConfig::default()
    };
    let (server, _oracle, set) = boot(config);
    let addr = server.local_addr();
    let body = wire::encode_spq(&sure_hit(&set));

    let clients: Vec<_> = (0..CONNS)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr);
                let mut burst = Vec::new();
                for _ in 0..PER_CONN {
                    burst.extend_from_slice(&encode_request("POST", "/spq", body.as_bytes()));
                }
                client.send_raw(&burst);
                let mut statuses = Vec::new();
                for _ in 0..PER_CONN {
                    let response = client.read_response();
                    match response.status {
                        200 => assert!(response.body_str().starts_with("{\"values\":")),
                        503 => assert_eq!(response.header("retry-after"), Some("1")),
                        other => panic!("unexpected status {other}"),
                    }
                    statuses.push(response.status);
                }
                statuses
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut shed = 0usize;
    for client in clients {
        for status in client.join().expect("client thread") {
            match status {
                200 => ok += 1,
                _ => shed += 1,
            }
        }
    }
    assert_eq!(ok + shed, CONNS * PER_CONN, "every request answered once");
    assert!(ok > 0, "dispatched and parked requests must complete");

    let metrics = server.metrics();
    // `max_inflight` is the high-water mark of dispatched requests.
    assert!(
        metrics.max_inflight <= 2,
        "saw {} > queue_cap in flight",
        metrics.max_inflight
    );
    assert_eq!(metrics.shed as usize, shed);

    // Recovery: the same server serves a fresh request normally.
    let response = post(addr, "/spq", body.as_bytes());
    assert_eq!(response.status, 200);
    server.shutdown();
}

/// Several keep-alive connections to the same reactor all see the
/// oracle's answers, in order, across sequential and pipelined use.
#[test]
fn keep_alive_connections_agree_across_reactors() {
    let (server, oracle, set) = boot(ServerConfig::default());
    let addr = server.local_addr();
    let queries = workload(&set);

    let mut clients: Vec<_> = (0..6).map(|_| HttpClient::connect(addr)).collect();
    for q in &queries {
        let body = wire::encode_spq(q);
        let expected = wire::encode_travel_times(&oracle.get_travel_times(q));
        // Sequential round trips on every connection: identical bytes on
        // each.
        for client in &mut clients {
            let response = client.request("POST", "/spq", body.as_bytes());
            assert_eq!(response.status, 200, "{}", response.body_str());
            assert_eq!(response.body_str(), expected, "diverged for {q:?}");
        }
    }

    // One pipelined burst per connection: responses in request order.
    for client in &mut clients {
        let mut burst = Vec::new();
        for q in &queries {
            burst.extend_from_slice(&encode_request(
                "POST",
                "/spq",
                wire::encode_spq(q).as_bytes(),
            ));
        }
        client.send_raw(&burst);
        for q in &queries {
            let expected = wire::encode_travel_times(&oracle.get_travel_times(q));
            assert_eq!(client.read_response().body_str(), expected, "{q:?}");
        }
    }
    drop(clients);
    server.shutdown();
}

/// The binary fast path answers bit-identically to the JSON path and the
/// in-process oracle, for the whole sampled workload.
#[test]
fn binary_spq_frames_match_json_and_oracle_bit_for_bit() {
    let (server, oracle, set) = boot(ServerConfig::default());
    let addr = server.local_addr();

    for q in &workload(&set) {
        let want = oracle.get_travel_times(q);
        let (status, message) =
            frame_round_trip(addr, &encode_frame(&Message::TravelTimes(q.clone())));
        assert_eq!(status, 200);
        let Message::TravelTimesResult { values, fallback } = message else {
            panic!("expected a TravelTimesResult, got {message:?}");
        };
        assert_eq!(value_bits(&values), value_bits(&want.values), "{q:?}");
        assert_eq!(fallback, want.fallback, "{q:?}");

        // The JSON path over the same query agrees with the same oracle,
        // closing the three-way equivalence.
        let response = post(addr, "/spq", wire::encode_spq(q).as_bytes());
        assert_eq!(response.status, 200);
        assert_eq!(response.body_str(), wire::encode_travel_times(&want));
    }
    server.shutdown();
}

/// Malformed frames are `400` **error frames** (binary in, binary out),
/// and a frame error does not poison the connection for the next request.
#[test]
fn malformed_frames_are_rejected_as_error_frames() {
    let (server, _oracle, set) = boot(ServerConfig::default());
    let addr = server.local_addr();
    let spq = sure_hit(&set);
    let good = encode_frame(&Message::TravelTimes(spq.clone()));

    let expect_bad_request = |frame: &[u8], what: &str| {
        let (status, message) = frame_round_trip(addr, frame);
        assert_eq!(status, 400, "{what}");
        let Message::Err { code, message, .. } = message else {
            panic!("{what}: expected an error frame, got {message:?}");
        };
        assert_eq!(code, ErrCode::BadRequest, "{what}: {message}");
        assert!(!message.is_empty(), "{what}: reason must be present");
    };

    // Truncated mid-frame, trailing bytes, a valid frame of the wrong
    // message type, and a corrupted payload (CRC mismatch).
    expect_bad_request(&good[..good.len() / 2], "truncated frame");
    let mut trailing = good.clone();
    trailing.push(0x00);
    expect_bad_request(&trailing, "trailing bytes");
    expect_bad_request(&encode_frame(&Message::Health), "wrong message type");
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    expect_bad_request(&corrupt, "corrupted payload");

    // An edge id past the served network: decodes fine, fails admission.
    let out_of_range = Spq::new(
        tthr::network::Path::try_new(vec![tthr::network::EdgeId(u32::MAX - 1)]).unwrap(),
        TimeInterval::fixed(0, i64::MAX / 4),
    );
    expect_bad_request(
        &encode_frame(&Message::TravelTimes(out_of_range)),
        "edge id out of range",
    );

    // The error is the request's, not the connection's: a good frame on
    // the same keep-alive connection still answers.
    let mut client = HttpClient::connect(addr);
    client.send_raw(&encode_frame_request(&good[..good.len() / 2]));
    assert_eq!(client.read_response().status, 400);
    client.send_raw(&encode_frame_request(&good));
    assert_eq!(client.read_response().status, 200);
    server.shutdown();
}
