//! The wire protocol: JSON encodings of the service's request and
//! response types.
//!
//! Every encoder is a pure function of the in-memory value, so "the HTTP
//! response is byte-identical to calling [`QueryService`] in-process"
//! (`tests/server_equivalence.rs`) is a meaningful equation: the harness
//! encodes the in-process result with the *same* functions and compares
//! raw bytes. Floats use Rust's shortest-round-trip formatting; integer
//! fields (timestamps in particular) never pass through `f64`
//! ([`crate::json`]).
//!
//! [`QueryService`]: tthr_service::QueryService
//!
//! ## Endpoints
//!
//! | Method & path | Request body                   | Response body |
//! |---------------|--------------------------------|---------------|
//! | `GET /health` | —                              | [`{"status":"ok","ingest":…}`](encode_health) |
//! | `GET /stats`  | —                              | service + server statistics |
//! | `GET /metrics`| —                              | Prometheus text exposition |
//! | `GET /debug/slow` | —                          | [slow-query log](encode_slow) |
//! | `POST /spq`   | [SPQ](decode_spq)              | `{"values":[…],"fallback":…}` |
//! | `POST /trip`  | [SPQ](decode_spq)              | trip result (stats, subs, histogram) |
//! | `POST /batch` | `{"queries":[SPQ,…]}`          | `{"trips":[…]}` |
//! | `POST /append`| `{"base":n?,"trajectories":…}` | `{"appended":n}` |
//!
//! An SPQ is `{"path":[edge,…],"interval":I,"beta":n?,"user":u?,`
//! `"exclude":id?}` with `I` either `{"fixed":[start,end)}` spelled
//! `{"type":"fixed","start":s,"end":e}` or
//! `{"type":"periodic","start_sod":s,"len":l}`. An append trajectory is
//! `{"user":u,"entries":[[edge,enter_time,travel_time],…]}`.
//!
//! ## Two decoders per body, one definition
//!
//! Each request body has a **tree decoder** ([`decode_spq`],
//! [`decode_batch`], [`decode_append`]: [`json::parse`] then a walk of
//! the [`Json`] value) and a **typed decoder** ([`read_spq`],
//! [`read_batch`], [`read_append`]) that reads the same value straight
//! from the bytes with a [`json::Reader`] — no tree, no per-node
//! allocation. The server tries the typed decoder first. It answers
//! `Some` only for a body the tree decoder accepts, with a value equal to
//! the tree's (floats to the bit); for every other body — malformed JSON,
//! an escaped or repeated key, a value of a type it does not take, a
//! failed check — it answers `None` and the tree decoder decides, so
//! every `400` body is the tree's by construction. The tree decoders are
//! the definition `crates/server/tests/json_decoders.rs` holds the typed
//! ones to, over generated and mutated bodies.
//!
//! The `/spq`, `/trip` and `/batch` replies are written straight into
//! the output string; the tree encoders they replaced are kept in this
//! module's tests as the definition of their bytes.

use crate::json::{self, Json, Reader, Token};
use std::borrow::Cow;
use tthr_core::{Filter, Spq, TimeInterval, TravelTimes, TripQuery};
use tthr_metrics::LogHistogram;
use tthr_network::{EdgeId, Path};
use tthr_service::{Endpoint, LatencySummary, PerEndpoint, ServiceStats, SlowQuery};
use tthr_trajectory::{TrajEntry, TrajId, UserId};

/// A request the wire layer refuses, with the reason sent back as the
/// `400` body.
pub type WireError = String;

/// A decoded `/append` body: the optional idempotency stamp and the raw
/// trajectory payloads
/// ([`QueryService::append_new`](tthr_service::QueryService::append_new)).
pub type AppendBody = (Option<u64>, Vec<(UserId, Vec<TrajEntry>)>);

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn err(reason: impl Into<String>) -> WireError {
    reason.into()
}

/// Encodes the `/health` body: liveness plus the ingestion-lifecycle
/// status (hot-tail backlog and compaction counters).
pub fn encode_health(ingest: &tthr_service::IngestStatus) -> String {
    obj(vec![
        ("status", Json::Str("ok".to_string())),
        (
            "ingest",
            obj(vec![
                ("hot_tail", Json::Bool(ingest.hot_tail)),
                ("hot_batches", Json::Int(ingest.hot.batches as i64)),
                ("hot_entries", Json::Int(ingest.hot.entries as i64)),
                ("hot_bytes", Json::Int(ingest.hot.bytes as i64)),
                ("compactions", Json::Int(ingest.compactions as i64)),
                (
                    "compaction_errors",
                    Json::Int(ingest.compaction_errors as i64),
                ),
                ("sealed_batches", Json::Int(ingest.sealed_batches as i64)),
                (
                    "dropped_partitions",
                    Json::Int(ingest.dropped_partitions as i64),
                ),
            ]),
        ),
    ])
    .encode()
}

/// Encodes an error body `{"error": reason}`.
pub fn encode_error(reason: &str) -> String {
    obj(vec![("error", Json::Str(reason.to_string()))]).encode()
}

// ---------------------------------------------------------------- queries

/// Decodes an SPQ, validating edges against the network size (an
/// out-of-range edge would panic deep inside the engine).
pub fn decode_spq(v: &Json, num_edges: usize) -> Result<Spq, WireError> {
    let edges = v
        .get("path")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("\"path\" must be an array of edge ids"))?;
    let mut path = Vec::with_capacity(edges.len());
    for e in edges {
        let id = e
            .as_u64()
            .filter(|&id| id < num_edges as u64)
            .ok_or_else(|| err(format!("edge ids must be integers < {num_edges}")))?;
        path.push(tthr_network::EdgeId(id as u32));
    }
    let path = Path::try_new(path).map_err(|e| err(format!("invalid path: {e:?}")))?;
    let interval = decode_interval(
        v.get("interval")
            .ok_or_else(|| err("missing \"interval\""))?,
    )?;
    let mut spq = Spq::new(path, interval);
    if let Some(beta) = v.get("beta") {
        spq = spq.with_beta(
            beta.as_u64()
                .filter(|&b| b <= u32::MAX as u64)
                .ok_or_else(|| err("\"beta\" must be a u32"))? as u32,
        );
    }
    if let Some(user) = v.get("user") {
        spq = spq.with_user(UserId(
            user.as_u64()
                .filter(|&u| u <= u32::MAX as u64)
                .ok_or_else(|| err("\"user\" must be a u32"))? as u32,
        ));
    }
    if let Some(ex) = v.get("exclude") {
        spq = spq.without_trajectory(TrajId(
            ex.as_u64()
                .filter(|&t| t <= u32::MAX as u64)
                .ok_or_else(|| err("\"exclude\" must be a u32"))? as u32,
        ));
    }
    Ok(spq)
}

fn decode_interval(v: &Json) -> Result<TimeInterval, WireError> {
    match v.get("type").and_then(Json::as_str) {
        Some("fixed") => {
            let start = v
                .get("start")
                .and_then(Json::as_i64)
                .ok_or_else(|| err("fixed interval needs integer \"start\""))?;
            let end = v
                .get("end")
                .and_then(Json::as_i64)
                .ok_or_else(|| err("fixed interval needs integer \"end\""))?;
            if start >= end {
                return Err(err("fixed interval must have start < end"));
            }
            Ok(TimeInterval::fixed(start, end))
        }
        Some("periodic") => {
            let start_sod = v
                .get("start_sod")
                .and_then(Json::as_i64)
                .ok_or_else(|| err("periodic interval needs integer \"start_sod\""))?;
            let len = v
                .get("len")
                .and_then(Json::as_i64)
                .filter(|&l| l > 0)
                .ok_or_else(|| err("periodic interval needs positive \"len\""))?;
            Ok(TimeInterval::periodic(start_sod, len))
        }
        _ => Err(err("\"interval\" needs \"type\": \"fixed\" | \"periodic\"")),
    }
}

/// Encodes an SPQ (the client half of the protocol; also used by the
/// bench driver and the differential harness).
pub fn encode_spq(spq: &Spq) -> String {
    let mut members = vec![
        (
            "path",
            Json::Arr(
                spq.path
                    .edges()
                    .iter()
                    .map(|e| Json::Int(e.0 as i64))
                    .collect(),
            ),
        ),
        (
            "interval",
            match spq.interval {
                TimeInterval::Fixed { start, end } => obj(vec![
                    ("type", Json::Str("fixed".into())),
                    ("start", Json::Int(start)),
                    ("end", Json::Int(end)),
                ]),
                TimeInterval::Periodic { start_sod, len } => obj(vec![
                    ("type", Json::Str("periodic".into())),
                    ("start_sod", Json::Int(start_sod)),
                    ("len", Json::Int(len)),
                ]),
            },
        ),
    ];
    if let Some(beta) = spq.beta {
        members.push(("beta", Json::Int(beta as i64)));
    }
    if let Filter::User(u) = spq.filter {
        members.push(("user", Json::Int(u.0 as i64)));
    }
    if let Some(ex) = spq.exclude {
        members.push(("exclude", Json::Int(ex.0 as i64)));
    }
    obj(members).encode()
}

/// Decodes a `/batch` request body.
pub fn decode_batch(v: &Json, num_edges: usize, max: usize) -> Result<Vec<Spq>, WireError> {
    let queries = v
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("\"queries\" must be an array of SPQs"))?;
    if queries.len() > max {
        return Err(err(format!("batch too large (max {max} queries)")));
    }
    queries.iter().map(|q| decode_spq(q, num_edges)).collect()
}

// --------------------------------------------------------- typed decoders

/// Reads an SPQ body (`/spq`, `/trip`) as [`decode_spq`] would decode
/// it, or `None` to leave the body to [`decode_spq`] (module docs).
pub fn read_spq(body: &[u8], num_edges: usize) -> Option<Spq> {
    Typed::document(body, |r, open| r.spq(open, num_edges))
}

/// Reads a `/batch` body as [`decode_batch`] would decode it, or `None`
/// to leave the body to [`decode_batch`].
pub fn read_batch(body: &[u8], num_edges: usize, max: usize) -> Option<Vec<Spq>> {
    Typed::document(body, |r, open| {
        let mut queries = None;
        r.members(open, |r, key| {
            let first = r.token()?;
            if key != "queries" {
                return r.skip(first);
            }
            let mut spqs = Vec::new();
            r.items(first, |r, query| {
                (spqs.len() < max).then_some(())?;
                spqs.push(r.spq(query, num_edges)?);
                Some(())
            })?;
            once(&mut queries, spqs)
        })?;
        queries
    })
}

/// Reads an `/append` body as [`decode_append`] would decode it, or
/// `None` to leave the body to [`decode_append`].
pub fn read_append(body: &[u8]) -> Option<AppendBody> {
    Typed::document(body, |r, open| {
        let (mut base, mut trajectories) = (None, None);
        r.members(open, |r, key| {
            let first = r.token()?;
            match key {
                "base" => once(
                    &mut base,
                    match first {
                        Token::Null => None,
                        other => Some(u64::try_from(int(other)?).ok()?),
                    },
                ),
                "trajectories" => {
                    let mut payload = Vec::new();
                    r.items(first, |r, open| {
                        payload.push(r.trajectory(open)?);
                        Some(())
                    })?;
                    once(&mut trajectories, payload)
                }
                _ => r.skip(first),
            }
        })?;
        Some((base.flatten(), trajectories?))
    })
}

/// The typed decoders' view of a [`Reader`]: each step answers `None` for
/// anything but the one shape it takes.
struct Typed<'a>(Reader<'a>);

impl<'a> Typed<'a> {
    /// Reads the one value of `body` with `read`, given its first token;
    /// the document must end there.
    fn document<T>(
        body: &'a [u8],
        read: impl FnOnce(&mut Self, Token<'a>) -> Option<T>,
    ) -> Option<T> {
        let mut r = Typed(Reader::new(body).ok()?);
        let first = r.token()?;
        let value = read(&mut r, first)?;
        matches!(r.0.next(), Ok(None)).then_some(value)
    }

    /// Always inlined, as [`Reader::next`] is, so the caller's match folds
    /// into the token's construction.
    #[inline(always)]
    fn token(&mut self) -> Option<Token<'a>> {
        self.0.next().ok().flatten()
    }

    /// Reads the object `open` begins, handing each member's key to
    /// `member`, which reads the value. An escaped key is not taken.
    fn members(
        &mut self,
        open: Token<'a>,
        mut member: impl FnMut(&mut Self, &'a str) -> Option<()>,
    ) -> Option<()> {
        matches!(open, Token::BeginObj).then_some(())?;
        loop {
            match self.token()? {
                Token::EndObj => return Some(()),
                Token::Key(Cow::Borrowed(key)) => member(self, key)?,
                _ => return None,
            }
        }
    }

    /// Reads the array `open` begins, handing each item's first token to
    /// `item`.
    fn items(
        &mut self,
        open: Token<'a>,
        mut item: impl FnMut(&mut Self, Token<'a>) -> Option<()>,
    ) -> Option<()> {
        matches!(open, Token::BeginArr).then_some(())?;
        loop {
            match self.token()? {
                Token::EndArr => return Some(()),
                first => item(self, first)?,
            }
        }
    }

    /// Skips the value `first` begins.
    fn skip(&mut self, first: Token<'a>) -> Option<()> {
        let mut depth = usize::from(matches!(first, Token::BeginObj | Token::BeginArr));
        while depth > 0 {
            match self.token()? {
                Token::BeginObj | Token::BeginArr => depth += 1,
                Token::EndObj | Token::EndArr => depth -= 1,
                _ => {}
            }
        }
        Some(())
    }

    /// [`decode_spq`]'s value and checks.
    fn spq(&mut self, open: Token<'a>, num_edges: usize) -> Option<Spq> {
        let (mut path, mut interval) = (None, None);
        let (mut beta, mut user, mut exclude) = (None, None, None);
        self.members(open, |r, key| {
            let first = r.token()?;
            match key {
                "path" => {
                    let mut edges = Vec::new();
                    r.items(first, |_, edge| {
                        let id = u64::try_from(int(edge)?).ok()?;
                        (id < num_edges as u64).then_some(())?;
                        edges.push(EdgeId(id as u32));
                        Some(())
                    })?;
                    once(&mut path, edges)
                }
                "interval" => once(&mut interval, r.interval(first)?),
                "beta" => once(&mut beta, u32_of(first)?),
                "user" => once(&mut user, u32_of(first)?),
                "exclude" => once(&mut exclude, u32_of(first)?),
                _ => r.skip(first),
            }
        })?;
        let mut spq = Spq::new(Path::try_new(path?).ok()?, interval?);
        if let Some(beta) = beta {
            spq = spq.with_beta(beta);
        }
        if let Some(user) = user {
            spq = spq.with_user(UserId(user));
        }
        if let Some(ex) = exclude {
            spq = spq.without_trajectory(TrajId(ex));
        }
        Some(spq)
    }

    /// [`decode_interval`]'s value and checks.
    fn interval(&mut self, open: Token<'a>) -> Option<TimeInterval> {
        let (mut kind, mut start, mut end, mut start_sod, mut len) = (None, None, None, None, None);
        self.members(open, |r, key| {
            let first = r.token()?;
            match key {
                "type" => match first {
                    Token::Str(kind_name) => once(&mut kind, kind_name),
                    _ => None,
                },
                "start" => once(&mut start, int(first)?),
                "end" => once(&mut end, int(first)?),
                "start_sod" => once(&mut start_sod, int(first)?),
                "len" => once(&mut len, int(first)?),
                _ => r.skip(first),
            }
        })?;
        match &*kind? {
            "fixed" => {
                let (start, end) = (start?, end?);
                (start < end).then(|| TimeInterval::fixed(start, end))
            }
            "periodic" => {
                let (start_sod, len) = (start_sod?, len?);
                (len > 0).then(|| TimeInterval::periodic(start_sod, len))
            }
            _ => None,
        }
    }

    /// One [`decode_append`] trajectory.
    fn trajectory(&mut self, open: Token<'a>) -> Option<(UserId, Vec<TrajEntry>)> {
        let (mut user, mut entries) = (None, None);
        self.members(open, |r, key| {
            let first = r.token()?;
            match key {
                "user" => once(&mut user, u32_of(first)?),
                "entries" => {
                    let mut decoded = Vec::new();
                    r.items(first, |r, open| {
                        decoded.push(r.entry(open)?);
                        Some(())
                    })?;
                    once(&mut entries, decoded)
                }
                _ => r.skip(first),
            }
        })?;
        Some((UserId(user?), entries?))
    }

    /// One `[edge, enter_time, travel_time]` triple.
    fn entry(&mut self, open: Token<'a>) -> Option<TrajEntry> {
        matches!(open, Token::BeginArr).then_some(())?;
        let edge = u32_of(self.token()?)?;
        let enter = int(self.token()?)?;
        let travel_time = match self.token()? {
            Token::Int(v) => v as f64,
            Token::Num(v) if v.is_finite() => v,
            _ => return None,
        };
        matches!(self.token()?, Token::EndArr)
            .then(|| TrajEntry::new(EdgeId(edge), enter, travel_time))
    }
}

/// Fills `slot`; a key seen twice is not taken (the tree reads the
/// first).
fn once<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    slot.replace(value).is_none().then_some(())
}

fn int(token: Token<'_>) -> Option<i64> {
    match token {
        Token::Int(v) => Some(v),
        _ => None,
    }
}

fn u32_of(token: Token<'_>) -> Option<u32> {
    u32::try_from(int(token)?).ok()
}

// -------------------------------------------------------------- responses

/// Encodes a `/spq` response.
pub fn encode_travel_times(tt: &TravelTimes) -> String {
    let mut out = String::with_capacity(32 + 20 * tt.values.len());
    out.push_str("{\"values\":");
    write_floats(&mut out, &tt.values);
    out.push_str(",\"fallback\":");
    json::write_bool(&mut out, tt.fallback);
    out.push('}');
    out
}

/// Encodes a `/trip` response.
pub fn encode_trip(trip: &TripQuery) -> String {
    let mut out = String::new();
    write_trip(&mut out, trip);
    out
}

/// Encodes a `/batch` response (trips in request order).
pub fn encode_trips(trips: &[TripQuery]) -> String {
    let mut out = String::from("{\"trips\":[");
    for (i, trip) in trips.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_trip(&mut out, trip);
    }
    out.push_str("]}");
    out
}

fn write_floats(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_num(out, v);
    }
    out.push(']');
}

fn write_trip(out: &mut String, trip: &TripQuery) {
    out.push_str("{\"predicted_duration\":");
    json::write_num(out, trip.predicted_duration());
    out.push_str(",\"histogram\":");
    match &trip.histogram {
        None => out.push_str("null"),
        Some(h) => {
            out.push_str("{\"bucket_width\":");
            json::write_num(out, h.bucket_width());
            out.push_str(",\"total\":");
            json::write_num(out, h.total());
            out.push_str(",\"buckets\":[");
            for (i, (edge, mass)) in h.iter().enumerate() {
                out.push_str(if i > 0 { ",[" } else { "[" });
                json::write_num(out, edge);
                out.push(',');
                json::write_num(out, mass);
                out.push(']');
            }
            out.push_str("]}");
        }
    }
    out.push_str(",\"subs\":[");
    for (i, sub) in trip.subs.iter().enumerate() {
        out.push_str(if i > 0 { ",{\"path\":[" } else { "{\"path\":[" });
        for (j, edge) in sub.path.edges().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_int(out, edge.0 as i64);
        }
        out.push_str("],\"mean\":");
        json::write_num(out, sub.mean);
        out.push_str(",\"fallback\":");
        json::write_bool(out, sub.fallback);
        out.push_str(",\"values\":");
        write_floats(out, &sub.values);
        out.push('}');
    }
    let s = &trip.stats;
    let counters = [
        ("initial_subqueries", s.initial_subqueries),
        ("final_subqueries", s.final_subqueries),
        ("widenings", s.widenings),
        ("path_splits", s.path_splits),
        ("filter_drops", s.filter_drops),
        ("full_fallbacks", s.full_fallbacks),
        ("estimator_rejections", s.estimator_rejections),
        ("index_queries", s.index_queries),
        ("estimate_fallbacks", s.estimate_fallbacks),
    ];
    out.push_str("],\"stats\":{");
    for (i, (name, count)) in counters.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        json::write_int(out, count as i64);
    }
    out.push_str("}}");
}

// ---------------------------------------------------------------- appends

/// Decodes an `/append` request body into the optional idempotency stamp
/// and the raw trajectory payloads
/// ([`QueryService::append_new`](tthr_service::QueryService::append_new)).
pub fn decode_append(v: &Json) -> Result<AppendBody, WireError> {
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

/// Encodes an `/append` request body (client half).
pub fn encode_append_request(base: Option<u64>, payload: &[(UserId, Vec<TrajEntry>)]) -> String {
    let mut members = Vec::new();
    if let Some(b) = base {
        members.push(("base", Json::Int(b as i64)));
    }
    members.push((
        "trajectories",
        Json::Arr(
            payload
                .iter()
                .map(|(user, entries)| {
                    obj(vec![
                        ("user", Json::Int(user.0 as i64)),
                        (
                            "entries",
                            Json::Arr(
                                entries
                                    .iter()
                                    .map(|e| {
                                        Json::Arr(vec![
                                            Json::Int(e.edge.0 as i64),
                                            Json::Int(e.enter_time),
                                            Json::Num(e.travel_time),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    obj(members).encode()
}

/// Encodes an `/append` response.
pub fn encode_appended(appended: usize) -> String {
    obj(vec![("appended", Json::Int(appended as i64))]).encode()
}

// ------------------------------------------------------------------ stats

fn summary_json(s: &LatencySummary) -> Json {
    obj(vec![
        ("count", Json::Int(s.count as i64)),
        ("p50_ms", Json::Num(s.p50_ms)),
        ("p95_ms", Json::Num(s.p95_ms)),
        ("p99_ms", Json::Num(s.p99_ms)),
        ("mean_ms", Json::Num(s.mean_ms)),
        ("max_ms", Json::Num(s.max_ms)),
    ])
}

fn buckets_json(h: &LogHistogram) -> Json {
    Json::Arr(
        h.nonzero_buckets()
            .map(|(idx, count)| Json::Arr(vec![Json::Int(idx as i64), Json::Int(count as i64)]))
            .collect(),
    )
}

/// Encodes the `/stats` response: the [`ServiceStats`] snapshot, the raw
/// per-endpoint latency bucket export (`ns` log-buckets — see
/// [`LogHistogram::nonzero_buckets`]), and the server-side counters.
pub fn encode_stats(
    stats: &ServiceStats,
    histograms: &PerEndpoint<LogHistogram>,
    server: &crate::ServerMetrics,
) -> String {
    let endpoints = Endpoint::ALL
        .iter()
        .map(|&e| {
            (
                e.name().to_string(),
                obj(vec![
                    ("latency", summary_json(&stats.endpoints[e])),
                    ("buckets_ns", buckets_json(&histograms[e])),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("spq_queries", Json::Int(stats.spq_queries as i64)),
        ("trip_queries", Json::Int(stats.trip_queries as i64)),
        ("generation", Json::Int(stats.generation as i64)),
        ("throughput_qps", Json::Num(stats.throughput_qps)),
        ("uptime_secs", Json::Num(stats.uptime.as_secs_f64())),
        ("latency", summary_json(&stats.latency)),
        ("endpoints", Json::Obj(endpoints)),
        (
            "cache",
            obj(vec![
                ("hits", Json::Int(stats.cache.hits as i64)),
                ("misses", Json::Int(stats.cache.misses as i64)),
                ("evictions", Json::Int(stats.cache.evictions as i64)),
                ("invalidations", Json::Int(stats.cache.invalidations as i64)),
                ("entries", Json::Int(stats.cache.entries as i64)),
            ]),
        ),
        (
            "server",
            obj(vec![
                ("accepted", Json::Int(server.accepted as i64)),
                (
                    "active_connections",
                    Json::Int(server.active_connections as i64),
                ),
                ("requests", Json::Int(server.requests as i64)),
                ("responses_ok", Json::Int(server.responses_ok as i64)),
                ("shed", Json::Int(server.shed as i64)),
                ("client_errors", Json::Int(server.client_errors as i64)),
                ("server_errors", Json::Int(server.server_errors as i64)),
                (
                    "refused_shutdown",
                    Json::Int(server.refused_shutdown as i64),
                ),
                ("max_inflight", Json::Int(server.max_inflight as i64)),
                ("bytes_in", Json::Int(server.bytes_in as i64)),
                ("bytes_out", Json::Int(server.bytes_out as i64)),
                ("reaped_idle", Json::Int(server.reaped_idle as i64)),
            ]),
        ),
    ])
    .encode()
}

// ------------------------------------------------------------- slow log

fn slow_query_json(q: &SlowQuery) -> Json {
    let t = &q.trace;
    let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    obj(vec![
        ("endpoint", Json::Str(q.endpoint.to_string())),
        ("seq", int(q.seq)),
        ("path_len", Json::Int(q.path_len as i64)),
        ("latency_ns", int(q.latency_ns)),
        (
            "trace",
            obj(vec![
                ("rank_ops", int(t.rank_ops)),
                ("wavelet_nodes", int(t.wavelet_nodes)),
                ("scratch_hits", int(t.scratch_hits)),
                ("scratch_misses", int(t.scratch_misses)),
                ("partitions_searched", int(t.partitions_searched)),
                ("index_queries", int(t.index_queries)),
                ("ladders", int(t.ladders)),
                ("ladder_batches", int(t.ladder_batches)),
                ("temporal_passes", int(t.temporal_passes)),
                ("pruned", int(t.pruned)),
                ("cache_hits", int(t.cache_hits)),
                ("cache_misses", int(t.cache_misses)),
                ("shard_queries", int(t.shard_queries)),
                ("shard_fanout", Json::Int(t.shard_fanout() as i64)),
                ("search_ns", int(t.search_ns)),
            ]),
        ),
    ])
}

/// Encodes the `/debug/slow` response: the worst queries seen (by wall
/// latency, worst first) and an every-Nth sample stream (oldest first),
/// each with its full [`QueryTrace`](tthr_core::QueryTrace).
pub fn encode_slow(top: &[SlowQuery], sampled: &[SlowQuery]) -> String {
    obj(vec![
        ("top", Json::Arr(top.iter().map(slow_query_json).collect())),
        (
            "sampled",
            Json::Arr(sampled.iter().map(slow_query_json).collect()),
        ),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_core::{QueryStats, QueryTrace, SubResult};
    use tthr_histogram::Histogram;

    #[test]
    fn spq_roundtrips_through_the_wire() {
        let spq = Spq::new(
            Path::new(vec![tthr_network::EdgeId(0), tthr_network::EdgeId(3)]),
            TimeInterval::fixed(-5, i64::MAX / 4),
        )
        .with_beta(7)
        .with_user(UserId(2))
        .without_trajectory(TrajId(11));
        let encoded = encode_spq(&spq);
        let back = decode_spq(&json::parse(encoded.as_bytes()).unwrap(), 6).unwrap();
        assert_eq!(back, spq, "fixed-interval query");
        assert_eq!(read_spq(encoded.as_bytes(), 6), Some(spq));

        let periodic = Spq::new(
            Path::new(vec![tthr_network::EdgeId(5)]),
            TimeInterval::periodic(8 * 3600, 1800),
        );
        let encoded = encode_spq(&periodic);
        let back = decode_spq(&json::parse(encoded.as_bytes()).unwrap(), 6).unwrap();
        assert_eq!(back, periodic, "periodic query");
        assert_eq!(read_spq(encoded.as_bytes(), 6), Some(periodic));
    }

    #[test]
    fn spq_validation_rejects_bad_input() {
        let reject = |body: &str| {
            assert_eq!(read_spq(body.as_bytes(), 6), None, "{body}");
            decode_spq(&json::parse(body.as_bytes()).unwrap(), 6)
                .expect_err(&format!("{body} must be rejected"))
        };
        reject(r#"{}"#);
        reject(r#"{"path":[],"interval":{"type":"fixed","start":0,"end":1}}"#);
        reject(r#"{"path":[6],"interval":{"type":"fixed","start":0,"end":1}}"#);
        reject(r#"{"path":[-1],"interval":{"type":"fixed","start":0,"end":1}}"#);
        reject(r#"{"path":[0],"interval":{"type":"fixed","start":5,"end":5}}"#);
        reject(r#"{"path":[0],"interval":{"type":"periodic","start_sod":0,"len":0}}"#);
        reject(r#"{"path":[0],"interval":{"type":"weekly","start":0,"end":1}}"#);
        reject(r#"{"path":[0],"interval":{"type":"fixed","start":0,"end":1},"beta":-2}"#);
        reject(r#"{"path":[0.5],"interval":{"type":"fixed","start":0,"end":1}}"#);
    }

    #[test]
    fn append_roundtrips() {
        let payload = vec![(
            UserId(3),
            vec![
                TrajEntry::new(tthr_network::EdgeId(1), 10, 6.5),
                TrajEntry::new(tthr_network::EdgeId(2), 17, 3.25),
            ],
        )];
        let encoded = encode_append_request(Some(42), &payload);
        let (base, back) = decode_append(&json::parse(encoded.as_bytes()).unwrap()).unwrap();
        assert_eq!(base, Some(42));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, UserId(3));
        assert_eq!(back[0].1, payload[0].1);
        assert_eq!(read_append(encoded.as_bytes()), Some((base, back)));
    }

    #[test]
    fn travel_times_encoding_is_bit_exact() {
        let tt = TravelTimes {
            values: vec![10.0, 1.0 / 3.0, 11.25].into(),
            fallback: false,
        };
        let s = encode_travel_times(&tt);
        let v = json::parse(s.as_bytes()).unwrap();
        let values = v.get("values").unwrap().as_arr().unwrap();
        assert_eq!(
            values[1].as_f64().unwrap().to_bits(),
            (1.0f64 / 3.0).to_bits()
        );
        assert_eq!(v.get("fallback").unwrap().as_bool(), Some(false));
    }

    // The tree encoders the reply writers replaced: the definition of the
    // writers' bytes.

    fn float_arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    fn travel_times_json(tt: &TravelTimes) -> Json {
        obj(vec![
            ("values", float_arr(&tt.values)),
            ("fallback", Json::Bool(tt.fallback)),
        ])
    }

    fn histogram_json(h: &Histogram) -> Json {
        obj(vec![
            ("bucket_width", Json::Num(h.bucket_width())),
            ("total", Json::Num(h.total())),
            (
                "buckets",
                Json::Arr(
                    h.iter()
                        .map(|(edge, mass)| Json::Arr(vec![Json::Num(edge), Json::Num(mass)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn trip_json(trip: &TripQuery) -> Json {
        let stats = &trip.stats;
        obj(vec![
            ("predicted_duration", Json::Num(trip.predicted_duration())),
            (
                "histogram",
                trip.histogram.as_ref().map_or(Json::Null, histogram_json),
            ),
            (
                "subs",
                Json::Arr(
                    trip.subs
                        .iter()
                        .map(|s| {
                            obj(vec![
                                (
                                    "path",
                                    Json::Arr(
                                        s.path
                                            .edges()
                                            .iter()
                                            .map(|e| Json::Int(e.0 as i64))
                                            .collect(),
                                    ),
                                ),
                                ("mean", Json::Num(s.mean)),
                                ("fallback", Json::Bool(s.fallback)),
                                ("values", float_arr(&s.values)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stats",
                obj(vec![
                    (
                        "initial_subqueries",
                        Json::Int(stats.initial_subqueries as i64),
                    ),
                    ("final_subqueries", Json::Int(stats.final_subqueries as i64)),
                    ("widenings", Json::Int(stats.widenings as i64)),
                    ("path_splits", Json::Int(stats.path_splits as i64)),
                    ("filter_drops", Json::Int(stats.filter_drops as i64)),
                    ("full_fallbacks", Json::Int(stats.full_fallbacks as i64)),
                    (
                        "estimator_rejections",
                        Json::Int(stats.estimator_rejections as i64),
                    ),
                    ("index_queries", Json::Int(stats.index_queries as i64)),
                    (
                        "estimate_fallbacks",
                        Json::Int(stats.estimate_fallbacks as i64),
                    ),
                ]),
            ),
        ])
    }

    fn trips_json(trips: &[TripQuery]) -> Json {
        obj(vec![(
            "trips",
            Json::Arr(trips.iter().map(trip_json).collect()),
        )])
    }

    fn assert_writers_match(trips: &[TripQuery]) {
        for trip in trips {
            assert_eq!(encode_trip(trip), trip_json(trip).encode());
        }
        assert_eq!(encode_trips(trips), trips_json(trips).encode());
    }

    /// Floats whose formatting has edges: zero signs, subnormals, the
    /// largest magnitudes, values with no short decimal form, integers
    /// past 2⁵³.
    const FLOATS: [f64; 12] = [
        0.0,
        -0.0,
        5e-324,
        2.2250738585072014e-308 / 3.0,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        f64::MAX,
        0.1,
        1.0 / 3.0,
        9007199254740993.0,
        4.0,
    ];

    #[test]
    fn reply_writers_match_the_tree_encoders() {
        let mut rng = proptest::TestRng::from_name("reply_writers_match_the_tree_encoders");
        let mut float = || FLOATS[(rng.next_u64() % FLOATS.len() as u64) as usize];
        for n in 0..6 {
            for fallback in [false, true] {
                let tt = TravelTimes {
                    values: (0..n).map(|_| float()).collect::<Vec<_>>().into(),
                    fallback,
                };
                assert_eq!(encode_travel_times(&tt), travel_times_json(&tt).encode());
            }
        }
        let one = TravelTimes {
            values: tthr_core::TtValues::one(-0.0),
            fallback: true,
        };
        assert_eq!(encode_travel_times(&one), travel_times_json(&one).encode());

        let histogram = |width: f64, weights: &[f64]| {
            let mut h = Histogram::new(width);
            for (i, &w) in weights.iter().enumerate() {
                h.add_weighted(i as f64 * width, w);
            }
            h
        };
        let sub = |edges: &[u32], values: Vec<f64>, mean: f64, fallback: bool| SubResult {
            path: Path::new(edges.iter().map(|&e| EdgeId(e)).collect()),
            histogram: Histogram::from_values(&[], 5.0),
            values,
            mean,
            fallback,
        };
        let max = usize::MAX;
        let trips = [
            TripQuery {
                histogram: None,
                subs: Vec::new(),
                stats: QueryStats::default(),
                trace: QueryTrace::default(),
            },
            TripQuery {
                histogram: Some(histogram(5e-324, &[5e-324, 0.0, 1e300])),
                subs: vec![
                    sub(&[0, u32::MAX], vec![-0.0, 5e-324], 1e300, false),
                    sub(&[u32::MAX], Vec::new(), -0.0, true),
                ],
                stats: QueryStats {
                    initial_subqueries: u32::MAX as usize,
                    final_subqueries: u32::MAX as usize + 1,
                    widenings: max,
                    path_splits: 1,
                    filter_drops: 0,
                    full_fallbacks: 2,
                    estimator_rejections: 3,
                    index_queries: 4,
                    estimate_fallbacks: 5,
                },
                trace: QueryTrace::default(),
            },
            TripQuery {
                histogram: Some(histogram(1e300, &[0.0, 0.1, 1.0 / 3.0])),
                subs: vec![sub(&[7], FLOATS.to_vec(), 0.1, false)],
                stats: QueryStats::default(),
                trace: QueryTrace::default(),
            },
        ];
        assert_writers_match(&trips);
        assert_writers_match(&[]);
    }

    /// Every trajectory of the small datagen world, asked as a trip along
    /// its own path in each of the benchmark's three query shapes.
    #[test]
    fn reply_writers_match_the_tree_encoders_on_every_small_world_trip() {
        use tthr_datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
        let syn = generate_network(&NetworkConfig::small());
        let set = generate_workload(&syn, &WorkloadConfig::small());
        let index = tthr_core::SntIndex::build(&syn.network, &set, tthr_core::SntConfig::default());
        let engine = tthr_core::QueryEngine::new(&index, &syn.network, Default::default());
        let mut trips = Vec::new();
        for (i, tr) in set.iter().enumerate() {
            let spq = match i % 3 {
                0 => Spq::new(
                    tr.path(),
                    TimeInterval::periodic_around(tr.start_time(), 900),
                ),
                1 => Spq::new(
                    tr.path(),
                    TimeInterval::periodic_around(tr.start_time(), 900),
                )
                .with_user(tr.user()),
                _ => Spq::new(tr.path(), TimeInterval::fixed(0, tr.start_time().max(1))),
            }
            .with_beta(20)
            .without_trajectory(tr.id());
            let trip = engine.trip_query(&spq);
            let spq_answer = TravelTimes {
                values: trip.subs[0].values.clone().into(),
                fallback: trip.subs[0].fallback,
            };
            assert_eq!(
                encode_travel_times(&spq_answer),
                travel_times_json(&spq_answer).encode()
            );
            trips.push(trip);
        }
        assert!(trips.len() > 100, "{} trips", trips.len());
        assert_writers_match(&trips);
    }
}
