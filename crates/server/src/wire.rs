//! The wire protocol: JSON encodings of the service's request and
//! response types.
//!
//! Every encoder is a pure function of the in-memory value, so "the HTTP
//! response is byte-identical to calling [`QueryService`] in-process"
//! (`tests/equivalence.rs`) is a meaningful equation: the harness
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
//! | `GET /health` | —                              | `{"status":"ok","ingest":…}` |
//! | `GET /stats`  | —                              | service + server statistics |
//! | `GET /metrics`| —                              | Prometheus text exposition |
//! | `GET /debug/slow` | —                          | slow-query log |
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
//! ## One decoder per body
//!
//! Each request body has one decoder ([`read_spq`], [`read_batch`],
//! [`read_append`]). It reads the value straight from the bytes with a
//! [`json::Reader`] — no tree, no per-node allocation — and writes its own
//! `400` reason. A syntax error anywhere wins, with [`json::parse`]'s text;
//! otherwise the reason is the first refusal in the reference decoder's
//! field order, whatever the document's order. The first of repeated keys
//! counts, an escaped key matches by its text, and a value that is not an
//! object has no fields. [`decode_spq`], a walk of a [`Json`] tree off the
//! request path, is the reference for an SPQ;
//! `crates/server/tests/json_decoders.rs` keeps those for a batch and an
//! append, and holds each decoder's `Result` to its reference's.
//!
//! The `/spq`, `/trip` and `/batch` replies are written straight into
//! the output string; the tree encoders they replaced are kept in this
//! module's tests as the definition of their bytes.

use crate::json::{self, Json, JsonError, Reader, Token};
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
pub(crate) fn encode_health(ingest: &tthr_service::IngestStatus) -> String {
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
    let mut out = String::from("{\"error\":");
    json::write_string(&mut out, reason);
    out + "}"
}

// ---------------------------------------------------------------- queries

/// Decodes an SPQ from its [`Json`] tree, validating edges against the
/// network size (an out-of-range edge would panic deep inside the engine):
/// the reference definition [`read_spq`] is tested against, off the
/// request path.
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

/// The reference definition of an SPQ's `interval` (see [`decode_spq`]).
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

// --------------------------------------------------------- typed decoders

/// Reads an SPQ body (`/spq`, `/trip`): [`decode_spq`]'s value, or its
/// refusal.
pub fn read_spq(body: &[u8], num_edges: usize) -> Result<Spq, WireError> {
    Typed::document(body, |r, open| r.spq(open, num_edges))
}

/// Reads a `/batch` body, `{"queries":[SPQ,…]}` with at most `max` SPQs.
pub fn read_batch(body: &[u8], num_edges: usize, max: usize) -> Result<Vec<Spq>, WireError> {
    const QUERIES: &str = "\"queries\" must be an array of SPQs";
    Typed::document(body, |r, open| {
        let mut queries = None;
        r.members(open, |r, key, first| {
            if key != "queries" || queries.is_some() {
                return r.skip(&first);
            }
            // Every item is counted: an oversized batch is refused before
            // any of its SPQs.
            let (mut spqs, mut count) = (Ok(Vec::new()), 0);
            let listed = r.items(first, QUERIES, |r, query| {
                count += 1;
                match &mut spqs {
                    Ok(read) if count <= max => match r.spq(query, num_edges) {
                        Ok(spq) => read.push(spq),
                        Err(e) => spqs = Err(e),
                    },
                    _ => r.skip(&query)?,
                }
                Ok(())
            });
            queries = Some(listed.and_then(|()| match count > max {
                true => Err(err(format!("batch too large (max {max} queries)"))),
                false => spqs,
            }));
            Ok(())
        })?;
        queries.unwrap_or_else(|| Err(err(QUERIES)))
    })
}

/// Reads an `/append` body into the optional idempotency stamp and the
/// raw trajectory payloads
/// ([`QueryService::append_new`](tthr_service::QueryService::append_new)).
pub fn read_append(body: &[u8]) -> Result<AppendBody, WireError> {
    const TRAJECTORIES: &str = "\"trajectories\" must be an array";
    Typed::document(body, |r, open| {
        let (mut base, mut trajectories) = (None, None);
        r.members(open, |r, key, first| {
            match key {
                "base" => r.keep(&mut base, first)?,
                "trajectories" if trajectories.is_none() => {
                    trajectories = Some(r.array(first, TRAJECTORIES, Typed::trajectory));
                }
                _ => r.skip(&first)?,
            }
            Ok(())
        })?;
        let base = match base {
            None | Some(Token::Null) => None,
            Some(b) => Some(u64_of(&b).ok_or_else(|| err("\"base\" must be a u64"))?),
        };
        let trajectories = trajectories.unwrap_or_else(|| Err(err(TRAJECTORIES)))?;
        Ok((base, trajectories))
    })
}

/// The typed decoders' view of a [`Reader`], which reads every token. A
/// field's refusal waits for the field's turn in the reference order; a
/// syntax error waits the same way and wins, as the reader repeats it.
struct Typed<'a>(Reader<'a>);

/// A syntax error's `400` reason: [`json::parse`]'s text.
fn syntax(e: JsonError) -> WireError {
    e.to_string()
}

impl<'a> Typed<'a> {
    /// Reads the one value of `body` with `read`, given its first token;
    /// the document must end there.
    fn document<T>(
        body: &'a [u8],
        read: impl FnOnce(&mut Self, Token<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut r = Typed(Reader::new(body).map_err(syntax)?);
        let value = r.token().and_then(|first| read(&mut r, first));
        r.0.next().map_err(syntax)?;
        value
    }

    /// The next token of an unfinished document. Always inlined, as
    /// [`Reader::next`] is, so the caller's match folds into the token.
    #[inline(always)]
    fn token(&mut self) -> Result<Token<'a>, WireError> {
        let token = self.0.next().map_err(syntax)?;
        Ok(token.expect("an unfinished document has a next token"))
    }

    /// Reads the object `open` begins, handing each member's key and the
    /// first token of its value to `member`, which reads the value. A
    /// value that is not an object is read as one with no members, as
    /// [`Json::get`] reads it.
    fn members(
        &mut self,
        open: Token<'a>,
        mut member: impl FnMut(&mut Self, &str, Token<'a>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        if !matches!(open, Token::BeginObj) {
            return self.skip(&open);
        }
        // The reader's only other token here is the `}`.
        while let Token::Key(key) = self.token()? {
            let first = self.token()?;
            member(self, &key, first)?;
        }
        Ok(())
    }

    /// Reads the array `open` begins, handing each item's first token to
    /// `item`, which reads the item. A value that is not an array is
    /// refused as `not_array`.
    fn items(
        &mut self,
        open: Token<'a>,
        not_array: &str,
        mut item: impl FnMut(&mut Self, Token<'a>) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        if !matches!(open, Token::BeginArr) {
            self.skip(&open)?;
            return Err(err(not_array));
        }
        loop {
            match self.token()? {
                Token::EndArr => return Ok(()),
                first => item(self, first)?,
            }
        }
    }

    /// [`Self::items`], each read by `item`, up to the first one it
    /// refuses: that refusal is the array's, and the items after it are
    /// only skipped.
    fn array<T>(
        &mut self,
        open: Token<'a>,
        not_array: &str,
        mut item: impl FnMut(&mut Self, Token<'a>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut values = Ok(Vec::new());
        self.items(open, not_array, |r, first| {
            match &mut values {
                Ok(read) => match item(r, first) {
                    Ok(value) => read.push(value),
                    Err(e) => values = Err(e),
                },
                Err(_) => r.skip(&first)?,
            }
            Ok(())
        })?;
        values
    }

    /// Skips the value `first` begins: for a scalar, nothing. Always
    /// inlined, as it is called on every scalar read.
    #[inline(always)]
    fn skip(&mut self, first: &Token<'a>) -> Result<(), WireError> {
        let mut depth = usize::from(matches!(first, Token::BeginObj | Token::BeginArr));
        while depth > 0 {
            match self.token()? {
                Token::BeginObj | Token::BeginArr => depth += 1,
                Token::EndObj | Token::EndArr => depth -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// Skips a field's value, keeping its first token in `slot` if this
    /// is the field's first occurrence (the one [`Json::get`] finds).
    fn keep(&mut self, slot: &mut Option<Token<'a>>, first: Token<'a>) -> Result<(), WireError> {
        self.skip(&first)?;
        slot.get_or_insert(first);
        Ok(())
    }

    /// [`decode_spq`]'s value and checks, in its order.
    fn spq(&mut self, open: Token<'a>, num_edges: usize) -> Result<Spq, WireError> {
        const PATH: &str = "\"path\" must be an array of edge ids";
        let (mut path, mut interval) = (None, None);
        let (mut beta, mut user, mut exclude) = (None, None, None);
        self.members(open, |r, key, first| {
            match key {
                "path" if path.is_none() => {
                    path = Some(r.array(first, PATH, |r, edge| {
                        r.skip(&edge)?;
                        let id = u64_of(&edge).filter(|&id| id < num_edges as u64);
                        let e = || err(format!("edge ids must be integers < {num_edges}"));
                        Ok(EdgeId(id.ok_or_else(e)? as u32))
                    }));
                }
                "interval" if interval.is_none() => interval = Some(r.interval(first)),
                "beta" => r.keep(&mut beta, first)?,
                "user" => r.keep(&mut user, first)?,
                "exclude" => r.keep(&mut exclude, first)?,
                _ => r.skip(&first)?,
            }
            Ok(())
        })?;
        let path = path.unwrap_or_else(|| Err(err(PATH)))?;
        let path = Path::try_new(path).map_err(|e| err(format!("invalid path: {e:?}")))?;
        let interval = interval.unwrap_or_else(|| Err(err("missing \"interval\"")))?;
        let u32_field = |field: Option<Token<'_>>, name: &str| {
            let refused = || err(format!("\"{name}\" must be a u32"));
            field.map(|v| u32_of(&v).ok_or_else(refused)).transpose()
        };
        Ok(Spq {
            path,
            interval,
            beta: u32_field(beta, "beta")?,
            filter: u32_field(user, "user")?.map_or(Filter::None, |u| Filter::User(UserId(u))),
            exclude: u32_field(exclude, "exclude")?.map(TrajId),
        })
    }

    /// [`decode_interval`]'s value and checks, in its order.
    fn interval(&mut self, open: Token<'a>) -> Result<TimeInterval, WireError> {
        let (mut kind, mut start, mut end, mut start_sod, mut len) = (None, None, None, None, None);
        self.members(open, |r, key, first| match key {
            "type" => r.keep(&mut kind, first),
            "start" => r.keep(&mut start, first),
            "end" => r.keep(&mut end, first),
            "start_sod" => r.keep(&mut start_sod, first),
            "len" => r.keep(&mut len, first),
            _ => r.skip(&first),
        })?;
        let int = |field: Option<Token<'_>>| field.as_ref().and_then(int);
        match kind {
            Some(Token::Str(kind)) if kind == "fixed" => {
                let start =
                    int(start).ok_or_else(|| err("fixed interval needs integer \"start\""))?;
                let end = int(end).ok_or_else(|| err("fixed interval needs integer \"end\""))?;
                if start >= end {
                    return Err(err("fixed interval must have start < end"));
                }
                Ok(TimeInterval::fixed(start, end))
            }
            Some(Token::Str(kind)) if kind == "periodic" => {
                let start_sod = int(start_sod)
                    .ok_or_else(|| err("periodic interval needs integer \"start_sod\""))?;
                let len = int(len)
                    .filter(|&l| l > 0)
                    .ok_or_else(|| err("periodic interval needs positive \"len\""))?;
                Ok(TimeInterval::periodic(start_sod, len))
            }
            _ => Err(err("\"interval\" needs \"type\": \"fixed\" | \"periodic\"")),
        }
    }

    /// One `/append` trajectory, `user` checked before `entries`.
    fn trajectory(&mut self, open: Token<'a>) -> Result<(UserId, Vec<TrajEntry>), WireError> {
        const ENTRIES: &str = "trajectory needs \"entries\" [[edge,enter,tt],…]";
        let (mut user, mut entries) = (None, None);
        self.members(open, |r, key, first| {
            match key {
                "user" => r.keep(&mut user, first)?,
                "entries" if entries.is_none() => {
                    entries = Some(r.array(first, ENTRIES, Typed::entry));
                }
                _ => r.skip(&first)?,
            }
            Ok(())
        })?;
        let user = user.as_ref().and_then(u32_of);
        let user = user.ok_or_else(|| err("trajectory needs u32 \"user\""))?;
        Ok((UserId(user), entries.unwrap_or_else(|| Err(err(ENTRIES)))?))
    }

    /// One `[edge, enter_time, travel_time]` entry: an array of exactly
    /// three items before any item is checked.
    fn entry(&mut self, open: Token<'a>) -> Result<TrajEntry, WireError> {
        const TRIPLE: &str = "each entry must be a [edge, enter_time, travel_time] triple";
        let (mut triple, mut len) = ([None, None, None], 0);
        self.items(open, TRIPLE, |r, item| {
            r.skip(&item)?;
            if let Some(slot) = triple.get_mut(len) {
                *slot = Some(item);
            }
            len += 1;
            Ok(())
        })?;
        let (3, [Some(edge), Some(enter), Some(travel_time)]) = (len, triple) else {
            return Err(err(TRIPLE));
        };
        let edge = u32_of(&edge).ok_or_else(|| err("entry edge must be a u32"))?;
        let enter = int(&enter).ok_or_else(|| err("entry enter_time must be an integer"))?;
        let travel_time = match travel_time {
            Token::Int(v) => v as f64,
            Token::Num(v) if v.is_finite() => v,
            _ => return Err(err("entry travel_time must be a finite number")),
        };
        Ok(TrajEntry::new(EdgeId(edge), enter, travel_time))
    }
}

fn int(token: &Token<'_>) -> Option<i64> {
    match *token {
        Token::Int(v) => Some(v),
        _ => None,
    }
}

fn u64_of(token: &Token<'_>) -> Option<u64> {
    u64::try_from(int(token)?).ok()
}

fn u32_of(token: &Token<'_>) -> Option<u32> {
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
    format!("{{\"appended\":{appended}}}")
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
pub(crate) fn encode_stats(
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
pub(crate) fn encode_slow(top: &[SlowQuery], sampled: &[SlowQuery]) -> String {
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
        assert_eq!(read_spq(encoded.as_bytes(), 6), Ok(spq));

        let periodic = Spq::new(
            Path::new(vec![tthr_network::EdgeId(5)]),
            TimeInterval::periodic(8 * 3600, 1800),
        );
        let encoded = encode_spq(&periodic);
        let back = decode_spq(&json::parse(encoded.as_bytes()).unwrap(), 6).unwrap();
        assert_eq!(back, periodic, "periodic query");
        assert_eq!(read_spq(encoded.as_bytes(), 6), Ok(periodic));
    }

    #[test]
    fn spq_validation_rejects_bad_input() {
        let reject = |body: &str| {
            let reason = decode_spq(&json::parse(body.as_bytes()).unwrap(), 6)
                .expect_err(&format!("{body} must be rejected"));
            assert_eq!(read_spq(body.as_bytes(), 6), Err(reason), "{body}");
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
        assert_eq!(read_append(encoded.as_bytes()), Ok((Some(42), payload)));
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
