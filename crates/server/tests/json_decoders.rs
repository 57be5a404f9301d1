//! Typed-vs-tree decoder battery.
//!
//! The server decodes `/spq`, `/trip`, `/batch` and `/append` bodies with
//! `wire::read_*` — a pull reader, no value tree — and hands any body
//! those do not take to `json::parse` + `wire::decode_*`, the tree
//! decoders that define the protocol and write every `400` body. For
//! generated bodies — the protocol's own encoders, the benchmark's
//! `/append` shape, and restyled variants with whitespace, reordered,
//! unknown, repeated and escaped keys, and numbers spelled with
//! exponents, as `-0` or at the `i64` / `u32` bounds — and for every
//! single-byte flip, truncation and insertion of each:
//!
//! * the pull reader accepts exactly the documents `json::parse`
//!   accepts, and its tokens spell the same tree (errors equal too);
//! * a typed `Some` implies a tree `Ok` with an equal value, floats
//!   compared by their bits;
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

/// A typed `Some` is the tree decoder's `Ok` value.
fn check_typed<T: std::fmt::Debug>(
    body: &[u8],
    tree: &Result<Json, JsonError>,
    typed: Option<T>,
    decode: impl FnOnce(&Json) -> Result<T, wire::WireError>,
    equal: impl FnOnce(&T, &T) -> bool,
) {
    let Some(typed) = typed else { return };
    let parsed = tree
        .as_ref()
        .unwrap_or_else(|e| panic!("typed Some, tree {e}: {:?}", lossy(body)));
    let decoded =
        decode(parsed).unwrap_or_else(|e| panic!("typed Some, tree {e:?}: {:?}", lossy(body)));
    assert!(
        equal(&typed, &decoded),
        "{:?}: typed {typed:?}, tree {decoded:?}",
        lossy(body)
    );
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

fn example_service() -> QueryService<SntIndex> {
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
fn tree_answer(service: &QueryService<SntIndex>, target: &str, body: &[u8]) -> (u16, Vec<u8>) {
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
            "/batch" => wire::decode_batch(&v, num_edges, MAX_BATCH)
                .map_err(bad)
                .map(|qs| wire::encode_trips(&service.batch_trip_queries(&qs))),
            "/append" => wire::decode_append(&v)
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
fn check_answer(
    served: &QueryService<SntIndex>,
    oracle: &QueryService<SntIndex>,
    target: &str,
    body: &[u8],
) {
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
        assert_eq!(wire::read_spq(plain.as_bytes(), num_edges), Some(spq));
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
        assert_eq!(read, Some(spqs));
        let styled = gen.restyle(&json::parse(plain.as_bytes()).unwrap());
        for body in [plain, styled] {
            gen.body_and_mutants(body.as_bytes(), |body| {
                let tree = check_reader(body);
                for max in [MAX_BATCH, 1] {
                    check_typed(
                        body,
                        &tree,
                        wire::read_batch(body, num_edges, max),
                        |v| wire::decode_batch(v, num_edges, max),
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
                check_typed(body, &tree, read, wire::decode_append, |a, b| {
                    append_bits(a) == append_bits(b)
                });
                check_answer(&served, &oracle, "/append", body);
            });
        }
    });
}

/// Hand-picked bodies on the edges of the contract: each decodes through
/// the typed path only when the tree agrees.
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
            wire::decode_append,
            |a, b| append_bits(a) == append_bits(b),
        );
    }
}
