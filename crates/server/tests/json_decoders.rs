//! Typed-decoder battery: the request path's decoders against their
//! reference definitions.
//!
//! The server decodes `/spq`, `/trip`, `/batch` and `/append` bodies with
//! `wire::read_*` alone — a pull reader, no value tree — and those write
//! every `400` reason too. Their definition is `json::parse` followed by a
//! walk of the tree: `wire::decode_spq`, and the batch and append
//! decoders below, which are kept here as the oracle and are not on the
//! request path. For generated bodies — the protocol's own encoders, the
//! benchmark's `/append` shape, and restyled variants with whitespace,
//! reordered, unknown, repeated and escaped keys, and numbers spelled
//! with exponents, as `-0` or at the `i64` / `u32` bounds — and for every
//! single-byte flip, truncation and insertion of each:
//!
//! * the pull reader accepts exactly the documents `json::parse`
//!   accepts, and its tokens spell the same tree (errors equal too);
//! * a typed decoder's `Result` is the oracle's: `Ok` values equal with
//!   floats compared by their bits, `Err` reasons equal as strings;
//! * the server's request handler answers the status and body the tree
//!   path answers;
//! * no input panics.
//!
//! Generation is seeded from each test's name (the proptest shim's
//! convention); `TTHR_DIFF_SEED` re-seeds it, which the nightly job does
//! to run the battery on a fresh stream.

use proptest::TestRng;
use std::sync::Arc;
use tthr_core::{SntConfig, SntIndex, Spq, TimeInterval};
use tthr_network::examples::example_network;
use tthr_network::{EdgeId, Path};
use tthr_server::json::{self, Json, JsonError, Reader, Token};
use tthr_server::{answer_json, wire};
use tthr_service::{QueryService, ServiceConfig};
use tthr_store::StoreError;
use tthr_trajectory::examples::example_trajectories;
use tthr_trajectory::{TrajEntry, TrajId, UserId};

fn err(reason: impl Into<String>) -> wire::WireError {
    reason.into()
}

/// The reference definition of a `/batch` body.
fn decode_batch(v: &Json, num_edges: usize, max: usize) -> Result<Vec<Spq>, wire::WireError> {
    let queries = v
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("\"queries\" must be an array of SPQs"))?;
    if queries.len() > max {
        return Err(err(format!("batch too large (max {max} queries)")));
    }
    queries
        .iter()
        .map(|q| wire::decode_spq(q, num_edges))
        .collect()
}

/// The reference definition of an `/append` body: the optional
/// idempotency stamp and the raw trajectory payloads.
fn decode_append(v: &Json) -> Result<wire::AppendBody, wire::WireError> {
    let base = match v.get("base") {
        None | Some(Json::Null) => None,
        Some(b) => Some(b.as_u64().ok_or_else(|| err("\"base\" must be a u64"))?),
    };
    let trajectories = v
        .get("trajectories")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("\"trajectories\" must be an array"))?;
    let mut out = Vec::with_capacity(trajectories.len());
    for t in trajectories {
        let user = t
            .get("user")
            .and_then(Json::as_u64)
            .filter(|&u| u <= u32::MAX as u64)
            .ok_or_else(|| err("trajectory needs u32 \"user\""))?;
        let entries = t
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("trajectory needs \"entries\" [[edge,enter,tt],…]"))?;
        let mut decoded = Vec::with_capacity(entries.len());
        for e in entries {
            let triple = e.as_arr().filter(|a| a.len() == 3).ok_or_else(|| {
                err("each entry must be a [edge, enter_time, travel_time] triple")
            })?;
            let edge = triple[0]
                .as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .ok_or_else(|| err("entry edge must be a u32"))?;
            let enter = triple[1]
                .as_i64()
                .ok_or_else(|| err("entry enter_time must be an integer"))?;
            let tt = triple[2]
                .as_f64()
                .filter(|t| t.is_finite())
                .ok_or_else(|| err("entry travel_time must be a finite number"))?;
            decoded.push(TrajEntry::new(tthr_network::EdgeId(edge as u32), enter, tt));
        }
        out.push((UserId(user as u32), decoded));
    }
    Ok((base, out))
}

/// `ServerConfig::default().max_batch_queries`, which `answer_json` uses.
const MAX_BATCH: usize = 1024;

/// Generated bodies per property. Each is checked with its ≈ 3 × length
/// mutants, so this is a quarter of the shim's `CASES`.
const CASES: usize = 16;

/// Runs `case` over [`CASES`] generated inputs.
fn cases(name: &str, mut case: impl FnMut(&mut Gen)) {
    let seed = std::env::var("TTHR_DIFF_SEED").unwrap_or_default();
    let mut gen = Gen(TestRng::from_name(&format!("{name}-{seed}")));
    for _ in 0..CASES {
        case(&mut gen);
    }
}

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// A timestamp-like integer, often at an edge of its range.
    fn time(&mut self) -> i64 {
        match self.below(4) {
            0 => self.pick(&[i64::MIN, i64::MIN + 1, -1, 0, i64::MAX / 4, i64::MAX - 1]),
            _ => self.below(200_000) as i64 - 1_000,
        }
    }

    fn u32_edge(&mut self, small: u64) -> u32 {
        if self.one_in(8) {
            self.pick(&[0, u32::MAX, u32::MAX - 1])
        } else {
            self.below(small) as u32
        }
    }

    fn spq(&mut self, num_edges: usize) -> Spq {
        let len = 1 + self.below(4) as usize;
        let path = (0..len)
            .map(|_| EdgeId(self.below(num_edges as u64) as u32))
            .collect();
        let interval = if self.one_in(2) {
            // `time()` stays below `i64::MAX`, so the end is past the start.
            let start = self.time();
            TimeInterval::fixed(start, start.saturating_add(1 + self.below(50_000) as i64))
        } else {
            TimeInterval::periodic(self.time(), 1 + self.below(90_000) as i64)
        };
        let mut spq = Spq::new(Path::new(path), interval);
        if self.one_in(2) {
            spq = spq.with_beta(self.u32_edge(30));
        }
        if self.one_in(3) {
            spq = spq.with_user(UserId(self.u32_edge(3)));
        }
        if self.one_in(3) {
            spq = spq.without_trajectory(TrajId(self.u32_edge(5)));
        }
        spq
    }

    /// A payload `append_new` accepts more often than not: entries in
    /// time order with positive travel times.
    fn payload(&mut self, num_edges: usize) -> Vec<(UserId, Vec<TrajEntry>)> {
        (0..1 + self.below(2))
            .map(|_| {
                let mut t = self.below(100_000) as i64;
                let entries = (0..1 + self.below(3))
                    .map(|_| {
                        t += 1 + self.below(60) as i64;
                        let tt = self.pick(&[3.0, 0.5, 12.345678901234567, 1e-3, 4e5, 7.25]);
                        TrajEntry::new(EdgeId(self.below(num_edges as u64) as u32), t, tt)
                    })
                    .collect();
                (UserId(self.u32_edge(3)), entries)
            })
            .collect()
    }

    /// A byte for a flip or an insertion: mostly one that means something
    /// to JSON.
    fn byte(&mut self) -> u8 {
        if self.one_in(4) {
            self.below(256) as u8
        } else {
            self.pick(b"{}[]\":,\\-+.eE0129 \tnu/")
        }
    }

    /// `value` written out with this generator's variations.
    fn restyle(&mut self, value: &Json) -> String {
        let mut out = String::new();
        self.write(value, &mut out);
        out
    }

    fn ws(&mut self, out: &mut String) {
        for _ in 0..self.below(3).saturating_sub(1) {
            out.push(self.pick(&[' ', '\t', '\n', '\r']));
        }
    }

    fn write(&mut self, value: &Json, out: &mut String) {
        self.ws(out);
        match value {
            Json::Int(0) if self.one_in(4) => out.push_str("-0"),
            Json::Int(v) if self.one_in(8) => out.push_str(&format!("{v}e0")),
            Json::Int(_) if self.one_in(16) => {
                out.push_str(self.pick(&[
                    "-9223372036854775808",
                    "9223372036854775807",
                    "9223372036854775808",
                    "4294967295",
                    "4294967296",
                ]));
            }
            Json::Num(v) if self.one_in(4) => out.push_str(&format!("{v:e}")),
            Json::Obj(members) => {
                let mut members = members.clone();
                if self.one_in(3) {
                    let i = self.below(members.len() as u64 + 1) as usize;
                    let nested = json::parse(br#"{"path":[1,{"a":[]}],"x":"\u00e9"}"#).unwrap();
                    members.insert(i, ("zz".to_string(), nested));
                }
                if self.one_in(3) && members.len() > 1 {
                    let (a, b) = (
                        self.below(members.len() as u64),
                        self.below(members.len() as u64),
                    );
                    members.swap(a as usize, b as usize);
                }
                let scalars: Vec<usize> = (0..members.len())
                    .filter(|&i| !matches!(members[i].1, Json::Arr(_) | Json::Obj(_)))
                    .collect();
                if self.one_in(2) && !scalars.is_empty() {
                    // A repeated key whose second value differs when it
                    // can: the tree reads the first.
                    let (key, value) = members[self.pick(&scalars)].clone();
                    let value = match value {
                        Json::Int(v) => Json::Int(v ^ 1),
                        other => other,
                    };
                    members.push((key, value));
                }
                out.push('{');
                for (i, (key, member)) in members.iter().enumerate() {
                    if i > 0 {
                        self.ws(out);
                        out.push(',');
                    }
                    self.ws(out);
                    if self.one_in(12) && !key.is_empty() {
                        // The first character as a `\u` escape.
                        let mut chars = key.chars();
                        let first = chars.next().unwrap();
                        out.push_str(&format!("\"\\u{:04x}{}\"", first as u32, chars.as_str()));
                    } else {
                        out.push_str(&Json::Str(key.clone()).encode());
                    }
                    self.ws(out);
                    out.push(':');
                    self.write(member, out);
                }
                self.ws(out);
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.ws(out);
                        out.push(',');
                    }
                    self.write(item, out);
                }
                self.ws(out);
                out.push(']');
            }
            other => out.push_str(&other.encode()),
        }
        self.ws(out);
    }

    /// `body`, then every single-byte flip, truncation and insertion of
    /// it, each handed to `check`.
    fn body_and_mutants(&mut self, body: &[u8], mut check: impl FnMut(&[u8])) {
        check(body);
        let mut mutant = Vec::with_capacity(body.len() + 1);
        for i in 0..body.len() {
            mutant.clear();
            mutant.extend_from_slice(body);
            mutant[i] = self.byte();
            check(&mutant);
            check(&body[..i]);
            mutant.clear();
            mutant.extend_from_slice(body);
            mutant.insert(i, self.byte());
            check(&mutant);
        }
    }
}

/// The tree the reader's tokens spell, built without `json::parse`.
fn rebuild(body: &[u8]) -> Result<Json, JsonError> {
    fn value(r: &mut Reader<'_>, token: Token<'_>) -> Result<Json, JsonError> {
        Ok(match token {
            Token::BeginObj => {
                let mut members = Vec::new();
                loop {
                    match r.next()?.expect("an open object continues") {
                        Token::EndObj => break Json::Obj(members),
                        Token::Key(key) => {
                            let first = r.next()?.expect("a key has a value");
                            members.push((key.into_owned(), value(r, first)?));
                        }
                        other => panic!("{other:?} in key position"),
                    }
                }
            }
            Token::BeginArr => {
                let mut items = Vec::new();
                loop {
                    match r.next()?.expect("an open array continues") {
                        Token::EndArr => break Json::Arr(items),
                        first => items.push(value(r, first)?),
                    }
                }
            }
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Int(v) => Json::Int(v),
            Token::Num(v) => Json::Num(v),
            Token::Bool(b) => Json::Bool(b),
            Token::Null => Json::Null,
            other => panic!("{other:?} in value position"),
        })
    }
    let mut reader = Reader::new(body)?;
    let first = reader.next()?.expect("a document has a value");
    let root = value(&mut reader, first)?;
    assert_eq!(reader.next()?, None, "nothing follows the root");
    Ok(root)
}

/// Structural equality with floats compared by their bits.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// The reader ≡ the tree parser; returns the parse.
fn check_reader(body: &[u8]) -> Result<Json, JsonError> {
    let tree = json::parse(body);
    match (rebuild(body), &tree) {
        (Ok(read), Ok(parsed)) => assert!(same(&read, parsed), "{:?}", lossy(body)),
        (Err(read), Err(parsed)) => assert_eq!(&read, parsed, "{:?}", lossy(body)),
        (read, parsed) => panic!("{:?}: reader {read:?}, parse {parsed:?}", lossy(body)),
    }
    tree
}

fn lossy(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

/// The typed decoder's `Result` is the oracle's: `json::parse`, then the
/// tree decoder `decode`.
fn check_typed<T: std::fmt::Debug>(
    body: &[u8],
    tree: &Result<Json, JsonError>,
    typed: Result<T, wire::WireError>,
    decode: impl FnOnce(&Json) -> Result<T, wire::WireError>,
    equal: impl FnOnce(&T, &T) -> bool,
) {
    let want = tree.as_ref().map_err(JsonError::to_string).and_then(decode);
    match (&typed, &want) {
        (Ok(got), Ok(want)) => assert!(
            equal(got, want),
            "{:?}: typed {got:?}, tree {want:?}",
            lossy(body)
        ),
        (Err(got), Err(want)) => assert_eq!(got, want, "{:?}", lossy(body)),
        _ => panic!("{:?}: typed {typed:?}, tree {want:?}", lossy(body)),
    }
}

/// An `/append` body with its travel times as bits.
type AppendBits = (Option<u64>, Vec<(u32, Vec<(u32, i64, u64)>)>);

fn append_bits(body: &wire::AppendBody) -> AppendBits {
    let (base, payload) = body;
    let payload = payload
        .iter()
        .map(|(user, entries)| {
            let entries = entries
                .iter()
                .map(|e| (e.edge.0, e.enter_time, e.travel_time.to_bits()))
                .collect();
            (user.0, entries)
        })
        .collect();
    (*base, payload)
}

fn example_service() -> QueryService {
    let network = Arc::new(example_network());
    let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
    let config = ServiceConfig {
        num_threads: 1,
        ..ServiceConfig::default()
    };
    QueryService::new(index, network, config)
}

/// What the tree path answers: `json::parse`, the tree decoder, the
/// service call, and the wire encoder — the handler as it was before the
/// typed decoders.
fn tree_answer(service: &QueryService, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let num_edges = service.network().num_edges();
    let bad = |e: wire::WireError| (400, e);
    let answer = json::parse(body)
        .map_err(|e| (400, e.to_string()))
        .and_then(|v| match target {
            "/spq" => wire::decode_spq(&v, num_edges)
                .map_err(bad)
                .map(|q| wire::encode_travel_times(&service.get_travel_times(&q))),
            "/trip" => wire::decode_spq(&v, num_edges)
                .map_err(bad)
                .map(|q| wire::encode_trip(&service.trip_query(&q))),
            "/batch" => decode_batch(&v, num_edges, MAX_BATCH)
                .map_err(bad)
                .map(|qs| wire::encode_trips(&service.batch_trip_queries(&qs))),
            "/append" => decode_append(&v)
                .map_err(bad)
                .and_then(|(base, payload)| {
                    service.append_new(base, &payload).map_err(|e| {
                        let status = match e {
                            StoreError::WalGap { .. } => 409,
                            StoreError::Corrupt { .. } => 400,
                            _ => 500,
                        };
                        (status, e.to_string())
                    })
                })
                .map(wire::encode_appended),
            other => unreachable!("no endpoint {other}"),
        });
    match answer {
        Ok(reply) => (200, reply.into_bytes()),
        Err((status, reason)) => (status, wire::encode_error(&reason).into_bytes()),
    }
}

/// The handler answers `served`'s request as the tree path answers
/// `oracle`'s.
fn check_answer(served: &QueryService, oracle: &QueryService, target: &str, body: &[u8]) {
    let got = answer_json(served, target, body).expect("a JSON endpoint");
    let want = tree_answer(oracle, target, body);
    assert_eq!(
        (got.0, lossy(&got.1)),
        (want.0, lossy(&want.1)),
        "{target} {:?}",
        lossy(body)
    );
}

#[test]
fn spq_bodies_decode_like_the_tree() {
    let service = example_service();
    let num_edges = service.network().num_edges();
    cases("spq_bodies_decode_like_the_tree", |gen| {
        let spq = gen.spq(num_edges);
        let plain = wire::encode_spq(&spq);
        assert_eq!(wire::read_spq(plain.as_bytes(), num_edges), Ok(spq));
        let styled = gen.restyle(&json::parse(plain.as_bytes()).unwrap());
        for body in [plain, styled] {
            gen.body_and_mutants(body.as_bytes(), |body| {
                let tree = check_reader(body);
                check_typed(
                    body,
                    &tree,
                    wire::read_spq(body, num_edges),
                    |v| wire::decode_spq(v, num_edges),
                    |a, b| a == b,
                );
                check_answer(&service, &service, "/spq", body);
                check_answer(&service, &service, "/trip", body);
            });
        }
    });
}

#[test]
fn batch_bodies_decode_like_the_tree() {
    let service = example_service();
    let num_edges = service.network().num_edges();
    cases("batch_bodies_decode_like_the_tree", |gen| {
        let spqs: Vec<Spq> = (0..gen.below(4)).map(|_| gen.spq(num_edges)).collect();
        let queries: Vec<String> = spqs.iter().map(wire::encode_spq).collect();
        let plain = format!("{{\"queries\":[{}]}}", queries.join(","));
        let read = wire::read_batch(plain.as_bytes(), num_edges, MAX_BATCH);
        assert_eq!(read, Ok(spqs));
        let styled = gen.restyle(&json::parse(plain.as_bytes()).unwrap());
        for body in [plain, styled] {
            gen.body_and_mutants(body.as_bytes(), |body| {
                let tree = check_reader(body);
                for max in [MAX_BATCH, 1] {
                    check_typed(
                        body,
                        &tree,
                        wire::read_batch(body, num_edges, max),
                        |v| decode_batch(v, num_edges, max),
                        |a, b| a == b,
                    );
                }
                check_answer(&service, &service, "/batch", body);
            });
        }
    });
}

#[test]
fn append_bodies_decode_like_the_tree() {
    let num_edges = example_network().num_edges();
    cases("append_bodies_decode_like_the_tree", |gen| {
        // Two services kept in lockstep: one behind the handler, one
        // behind the tree path; every append lands on both or neither.
        let (served, oracle) = (example_service(), example_service());
        let payload = gen.payload(num_edges);
        let base = gen.one_in(2).then(|| gen.pick(&[0, 4, 5, 9]));
        let plain = wire::encode_append_request(base, &payload);
        // The benchmark's own encoding: no stamp, `{}` for every float.
        let mut bench = String::from("{\"trajectories\":[");
        for (t, (user, entries)) in payload.iter().enumerate() {
            if t > 0 {
                bench.push(',');
            }
            bench.push_str(&format!("{{\"user\":{},\"entries\":[", user.0));
            for (i, e) in entries.iter().enumerate() {
                if i > 0 {
                    bench.push(',');
                }
                bench.push_str(&format!(
                    "[{},{},{}]",
                    e.edge.0, e.enter_time, e.travel_time
                ));
            }
            bench.push_str("]}");
        }
        bench.push_str("]}");
        for (body, stamp) in [(&plain, base), (&bench, None)] {
            let read = wire::read_append(body.as_bytes()).expect("encoder output reads typed");
            assert_eq!(append_bits(&read), append_bits(&(stamp, payload.clone())));
        }
        let styled = gen.restyle(&json::parse(plain.as_bytes()).unwrap());
        for body in [plain, bench, styled] {
            gen.body_and_mutants(body.as_bytes(), |body| {
                let tree = check_reader(body);
                let read = wire::read_append(body);
                check_typed(body, &tree, read, decode_append, |a, b| {
                    append_bits(a) == append_bits(b)
                });
                check_answer(&served, &oracle, "/append", body);
            });
        }
    });
}

/// Hand-picked bodies on the edges of the contract: each decodes to the
/// oracle's `Result`.
#[test]
fn edge_case_bodies_decode_like_the_tree() {
    let service = example_service();
    let fixed = r#""interval":{"type":"fixed","start":0,"end":9}"#;
    for body in [
        format!(r#"{{"path":[0,1],{fixed}}}"#),
        format!(r#"{{"path":[-0],{fixed}}}"#),
        format!(r#"{{"path":[0e0],{fixed}}}"#),
        format!(r#"{{"path":[0],"path":[1],{fixed}}}"#),
        format!(r#"{{"p\u0061th":[0],{fixed}}}"#),
        format!(r#"{{"path":[0],{fixed},"beta":4294967295}}"#),
        format!(r#"{{"path":[0],{fixed},"beta":4294967296}}"#),
        format!(r#"{{"path":[0],{fixed},"beta":null}}"#),
        format!(r#"{{"path":[0],{fixed},"user":1.0}}"#),
        format!(r#"{{"path":[0],{fixed},"zz":{{"path":[[[]]]}}}}"#),
        r#"{"path":[0],"interval":{"type":"fix\u0065d","start":0,"end":9}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"fixed","start":-9223372036854775808,"end":9223372036854775807}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"fixed","start":0,"end":9223372036854775808}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"periodic","start_sod":-1,"len":1,"start":"x"}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"fixed","start":0,"end":9,"len":"x"}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"fixed","start":0,"end":9,"type":"fixed"}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"\u+041","start":0,"end":9}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"fixed","start":5,"end":5}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"fixed","start":6,"end":5}}"#.to_string(),
        r#"{"path":[0],"interval":{"type":"periodic","start_sod":0,"len":0}}"#.to_string(),
        r#"{"path":[],"interval":{"type":"periodic","start_sod":0,"len":1}}"#.to_string(),
        r#"{"path":[6],"interval":{"type":"periodic","start_sod":0,"len":1}}"#.to_string(),
    ] {
        let body = body.as_bytes();
        let tree = check_reader(body);
        check_typed(
            body,
            &tree,
            wire::read_spq(body, 6),
            |v| wire::decode_spq(v, 6),
            |a, b| a == b,
        );
        check_answer(&service, &service, "/spq", body);
    }
    for body in [
        r#"{"base":null,"trajectories":[]}"#,
        r#"{"base":null,"base":4,"trajectories":[]}"#,
        r#"{"trajectories":[{"user":1,"entries":[[0,10,-0]]}]}"#,
        r#"{"trajectories":[{"user":1,"entries":[[0,10,1e400]]}]}"#,
        r#"{"trajectories":[{"user":1,"entries":[[0,10,3],[1,11,2.5e0]]}]}"#,
        r#"{"trajectories":[{"user":4294967296,"entries":[[0,10,3]]}]}"#,
        r#"{"trajectories":[{"user":1,"entries":[[4294967295,10,3]]}]}"#,
        r#"{"trajectories":[{"user":1,"entries":[[0,10,3,4]]}]}"#,
        r#"{"trajectories":[{"entries":[[0,10,3]],"user":2,"zz":[1]}],"base":4}"#,
    ] {
        let body = body.as_bytes();
        let tree = check_reader(body);
        check_typed(
            body,
            &tree,
            wire::read_append(body),
            decode_append,
            |a, b| append_bits(a) == append_bits(b),
        );
    }
}

/// The `400` reason of hand-written bodies on the edges of the error
/// contract, pinned as the tree path gives them.
#[test]
fn refused_bodies_answer_their_pinned_reasons() {
    let service = example_service();
    let fixed = r#""interval":{"type":"fixed","start":0,"end":9}"#;
    let path = r#""path" must be an array of edge ids"#;
    let triple = "each entry must be a [edge, enter_time, travel_time] triple";
    let cases = [
        // A syntax error wins over an earlier refusal.
        (
            "/spq",
            r#"{"path":"x","interval":}"#.to_string(),
            "invalid json at byte 23: expected a value",
        ),
        (
            "/append",
            r#"{"trajectories":[{"user":1,"entries":[[0,1,"x"]]},{"user":1}],"base":4"#.to_string(),
            "invalid json at byte 70: expected ',' or '}'",
        ),
        // Refusals follow the fields' order, not the document's.
        (
            "/spq",
            r#"{"interval":{"type":"bogus"},"path":"x"}"#.to_string(),
            path,
        ),
        (
            "/spq",
            r#"{"beta":-1,"path":[0]}"#.to_string(),
            r#"missing "interval""#,
        ),
        (
            "/trip",
            r#"{"path":[0],"interval":{"len":0,"start_sod":"x","type":"periodic"}}"#.to_string(),
            r#"periodic interval needs integer "start_sod""#,
        ),
        (
            "/append",
            r#"{"trajectories":"x","base":-1}"#.to_string(),
            r#""base" must be a u64"#,
        ),
        (
            "/append",
            r#"{"trajectories":[{"entries":[[0,1,"x"]],"user":-1}]}"#.to_string(),
            r#"trajectory needs u32 "user""#,
        ),
        // The first occurrence of a key wins, bad or good.
        (
            "/spq",
            format!(r#"{{"path":"x","path":[0],{fixed}}}"#),
            path,
        ),
        (
            "/spq",
            r#"{"path":[0],"path":"x","interval":{"type":"fixed","start":9,"end":0}}"#.to_string(),
            "fixed interval must have start < end",
        ),
        (
            "/batch",
            format!(
                r#"{{"queries":[{{"path":[0],{fixed}}},{{"path":[0],{fixed},"user":-1}}],"queries":[]}}"#
            ),
            r#""user" must be a u32"#,
        ),
        // An escaped key is its unescaped text.
        (
            "/spq",
            format!(r#"{{"p\u0061th":[9],{fixed}}}"#),
            "edge ids must be integers < 6",
        ),
        // A value that is not an object has no fields.
        ("/spq", "[0,1]".to_string(), path),
        (
            "/append",
            "[]".to_string(),
            r#""trajectories" must be an array"#,
        ),
        (
            "/spq",
            r#"{"path":[0],"interval":null}"#.to_string(),
            r#""interval" needs "type": "fixed" | "periodic""#,
        ),
        // A present `null` is a value of the wrong type.
        (
            "/trip",
            format!(r#"{{"path":[0],{fixed},"beta":null}}"#),
            r#""beta" must be a u32"#,
        ),
        (
            "/spq",
            r#"{"path":[],"interval":null}"#.to_string(),
            "invalid path: Empty",
        ),
        // An oversized batch is refused before its first, bad, SPQ.
        (
            "/batch",
            format!(
                r#"{{"queries":[{{"path":"x"}}{}]}}"#,
                ",{}".repeat(MAX_BATCH)
            ),
            "batch too large (max 1024 queries)",
        ),
        // An entry is a three-item array before its items are checked.
        (
            "/append",
            r#"{"trajectories":[{"user":1,"entries":[[1,2]]}]}"#.to_string(),
            triple,
        ),
        (
            "/append",
            r#"{"trajectories":[{"user":1,"entries":[[[1],2,3]]}]}"#.to_string(),
            "entry edge must be a u32",
        ),
    ];
    for (target, body, reason) in cases {
        let (status, reply) =
            answer_json(&service, target, body.as_bytes()).expect("a JSON endpoint");
        assert_eq!(
            (status, lossy(&reply)),
            (400, wire::encode_error(reason)),
            "{target} {body}"
        );
    }
}
