//! The cluster tier's binary wire protocol.
//!
//! One frame per message, in both directions, over a plain TCP stream:
//!
//! ```text
//! offset  size  field
//! ------  ----  --------------------------------------------------
//!      0     4  body length L (u32 LE) = 1 + payload length
//!      4     4  CRC-32 of the body (u32 LE, the tthr-store variant)
//!      8     1  message tag (u8)
//!      9   L-1  payload, tthr-store LE codec
//! ```
//!
//! The framing is deliberately the WAL record layout of `tthr-store`
//! (`[len][crc][bytes]`): torn and corrupted frames are detected the same
//! way, with the same CRC, before a single payload byte is interpreted.
//! Payloads reuse the store's [`Persist`] wire grammar, so every value
//! that already has a disk form (trajectory entries, routing tables,
//! append records) travels byte-identically on the wire.
//!
//! | tag | message | direction | payload |
//! |-----|---------------------|-----|------------------------------------------|
//! | 1   | `Health`            | req | — |
//! | 2   | `GetMeta`           | req | — |
//! | 3   | `GetRouting`        | req | — |
//! | 4   | `TravelTimes`       | req | SPQ |
//! | 5   | `Count`             | req | SPQ + cap (u32) |
//! | 6   | `Estimate`          | req | SPQ + mode (u8) |
//! | 7   | `Append`            | req | [`NodeWalRecord`] |
//! | 8   | `Snapshot`          | req | — |
//! | 9   | `FetchSnapshot`     | req | resume offset (u64) |
//! | 10  | `TailWal`           | req | from stamp (u64) |
//! | 11  | `Promote`           | req | — |
//! | 12  | *retired*           | —   | was `Ladder` (one ladder per frame); never reused |
//! | 13  | `LadderBatch`       | req | items (≤ 64), each SPQ + levels (interval seq, ≤ 32) |
//! | 16  | `Ok`                | resp | — |
//! | 17  | `Meta`              | resp | [`NodeMeta`] |
//! | 18  | `Routing`           | resp | [`ShardRouter`] |
//! | 19  | `TravelTimesResult` | resp | values (f64 seq) + fallback (bool) |
//! | 20  | `CountResult`       | resp | u64 |
//! | 21  | `EstimateResult`    | resp | f64 (bit-exact) |
//! | 22  | `Appended`          | resp | appended (u64) + total (u64) |
//! | 23  | `SnapshotChunk`     | resp | stamp + offset + total (u64×3) + bytes |
//! | 24  | `WalRecords`        | resp | records seq + end stamp (u64) |
//! | 25  | `ReplStatus`        | resp | role (u8) + applied/snapshot stamps (u64×2) |
//! | 26  | *retired*           | —    | was `LadderResult`; never reused |
//! | 27  | `LadderBatchResult` | resp | results (one per item), each level (u32) + values (f64 seq) + fallback (bool) |
//! | 31  | `Err`               | resp | code (u8) + expected/found (u64×2) + text |
//!
//! A ladder is a batch of one, so the `LadderBatch` pair is the only
//! ladder message; a peer still sending a retired tag gets a typed
//! [`FrameError::Tag`] (the node answers it `BadRequest`).
//!
//! Decoding never panics on hostile bytes: a wrong length, tag, CRC, or
//! payload is a typed [`FrameError`], and every strict prefix of a valid
//! frame is [`Decode::Incomplete`] (the incremental contract the proptest
//! battery in `tests/frame_codec.rs` pins, mirroring the HTTP parser's).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use tthr_core::node::{NodeWalRecord, MAX_LADDER_BATCH, MAX_LADDER_LEVELS};
use tthr_core::{CardinalityMode, Filter, LadderRequest, ShardRouter, Spq, TimeInterval};
use tthr_network::{EdgeId, Path, Timestamp, SECONDS_PER_DAY};
use tthr_store::{crc32, ByteReader, ByteWriter, Persist, StoreError};
use tthr_trajectory::{TrajId, UserId};

/// Frame header size: body length + CRC-32.
pub const FRAME_HEADER: usize = 8;

/// Largest accepted frame body (tag + payload). Append batches dominate;
/// 64 MiB is far above any batch the service tier accepts and small
/// enough that a corrupt length field cannot balloon a read buffer.
pub(crate) const MAX_FRAME_BODY: u32 = 64 << 20;

/// A typed framing/decoding error. Every variant is a protocol violation
/// by the peer (or wire corruption) — never an I/O condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a frame (blocking reads only; the
    /// incremental decoder reports [`Decode::Incomplete`] instead).
    Truncated,
    /// The length field is zero or exceeds `MAX_FRAME_BODY` (64 MiB).
    Length {
        /// The claimed body length.
        len: u32,
    },
    /// The body CRC does not match the header.
    Crc {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the received body.
        actual: u32,
    },
    /// Unknown message tag.
    Tag(
        /// The unrecognized tag byte.
        u8,
    ),
    /// The payload failed to decode under the message's wire form.
    Body(
        /// What went wrong, human-readable.
        String,
    ),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Length { len } => {
                write!(f, "frame body length {len} outside 1..={MAX_FRAME_BODY}")
            }
            FrameError::Crc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, body {actual:#010x}"
                )
            }
            FrameError::Tag(tag) => write!(f, "unknown message tag {tag}"),
            FrameError::Body(why) => write!(f, "frame payload: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<StoreError> for FrameError {
    fn from(e: StoreError) -> Self {
        FrameError::Body(e.to_string())
    }
}

/// Error codes carried by [`Message::Err`] — the cross-process projection
/// of the store/service error taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The request was malformed or misrouted (client/router bug).
    BadRequest,
    /// The node's state or the request payload failed validation.
    Corrupt,
    /// An append record's base stamp does not meet the node's counter;
    /// `expected`/`found` carry the two stamps.
    WalGap,
    /// The node failed internally (I/O on its WAL, poisoned state, …).
    Internal,
    /// The node is a standby and refuses writes; appends must go to the
    /// primary (or be preceded by a [`Message::Promote`]).
    NotPrimary,
}

impl ErrCode {
    fn tag(self) -> u8 {
        match self {
            ErrCode::BadRequest => 1,
            ErrCode::Corrupt => 2,
            ErrCode::WalGap => 3,
            ErrCode::Internal => 4,
            ErrCode::NotPrimary => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, FrameError> {
        Ok(match tag {
            1 => ErrCode::BadRequest,
            2 => ErrCode::Corrupt,
            3 => ErrCode::WalGap,
            4 => ErrCode::Internal,
            5 => ErrCode::NotPrimary,
            other => return Err(FrameError::Body(format!("error code {other}"))),
        })
    }
}

/// A node's replication role, carried in [`Message::ReplStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts appends and serves reads; the source standbys tail.
    Primary,
    /// Read-only warm replica tailing a primary's WAL; rejects appends
    /// with [`ErrCode::NotPrimary`] until promoted.
    Standby,
}

impl Role {
    fn tag(self) -> u8 {
        match self {
            Role::Primary => 0,
            Role::Standby => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, FrameError> {
        Ok(match tag {
            0 => Role::Primary,
            1 => Role::Standby,
            other => return Err(FrameError::Body(format!("role tag {other}"))),
        })
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Primary => write!(f, "primary"),
            Role::Standby => write!(f, "standby"),
        }
    }
}

/// A node's self-description, served on [`Message::GetMeta`]. The router
/// reconstructs its global view (trajectory count, data span) from these
/// and cross-checks that every node agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// The shard this node serves.
    pub shard: u16,
    /// Number of shards in the cluster.
    pub num_shards: u32,
    /// Edges in the routing table / index alphabet.
    pub num_edges: u64,
    /// Cluster-wide trajectory count the node is caught up to.
    pub num_global: u64,
    /// Trajectories this shard indexes (its member count).
    pub num_members: u64,
    /// Temporal partitions in the shard index.
    pub num_partitions: u64,
    /// Cluster-wide `data_min`.
    pub span_min: Timestamp,
    /// Cluster-wide `data_max`.
    pub span_max: Timestamp,
}

impl Persist for NodeMeta {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u16(self.shard);
        w.put_u32(self.num_shards);
        w.put_u64(self.num_edges);
        w.put_u64(self.num_global);
        w.put_u64(self.num_members);
        w.put_u64(self.num_partitions);
        w.put_i64(self.span_min);
        w.put_i64(self.span_max);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(NodeMeta {
            shard: r.get_u16()?,
            num_shards: r.get_u32()?,
            num_edges: r.get_u64()?,
            num_global: r.get_u64()?,
            num_members: r.get_u64()?,
            num_partitions: r.get_u64()?,
            span_min: r.get_i64()?,
            span_max: r.get_i64()?,
        })
    }
}

/// Every message of the protocol, requests and responses alike (the tag
/// space is shared; see the module docs for the frame table).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Liveness probe.
    Health,
    /// Request the node's [`NodeMeta`].
    GetMeta,
    /// Request the cluster routing table.
    GetRouting,
    /// `getTravelTimes` for an SPQ owned by this node's shard.
    TravelTimes(
        /// The query.
        Spq,
    ),
    /// Capped predicate-matching traversal count.
    Count {
        /// The query.
        spq: Spq,
        /// The count cap (σ_L asks for `β`, exactness for `u32::MAX`).
        cap: u32,
    },
    /// Cardinality estimate under one of the five paper modes.
    Estimate {
        /// The query.
        spq: Spq,
        /// The estimator mode.
        mode: CardinalityMode,
    },
    /// Apply one append record (idempotent by base stamp).
    Append(
        /// The record, exactly as the node logs it to its WAL.
        NodeWalRecord,
    ),
    /// Ask the node to write a fresh snapshot and rotate its WAL.
    Snapshot,
    /// Fetch the node's serialized shard snapshot in chunks, starting at
    /// `offset` (0 for a fresh transfer; a bootstrapping standby resumes
    /// an interrupted transfer by asking for the next byte it needs).
    FetchSnapshot {
        /// Byte offset into the snapshot blob to resume from.
        offset: u64,
    },
    /// Stream the node's WAL records from a stamp onward. The node
    /// answers [`Message::WalRecords`] with every retained record whose
    /// base stamp is `>= from_stamp`, or [`ErrCode::WalGap`] when the
    /// stamp predates its retained tail (the standby must re-sync from a
    /// snapshot).
    TailWal {
        /// The caller's applied stamp (its `num_global`).
        from_stamp: u64,
    },
    /// Promote a standby to primary (idempotent on a primary). Answered
    /// with [`Message::ReplStatus`] reflecting the new role.
    Promote,
    /// One relaxation round's ladders for this shard in one round trip:
    /// each item is a query under each window of its `levels` in turn
    /// (`levels[0]` is the query's own), answered — all under one read
    /// guard — with the first level that yields travel times. At most
    /// [`MAX_LADDER_BATCH`] items; a single ladder is a batch of one.
    LadderBatch {
        /// `(query at level 0, nested window sequence narrowest first)`.
        items: Vec<LadderRequest>,
    },
    /// Generic success (snapshot requests).
    Ok,
    /// The node's self-description.
    Meta(
        /// The metadata.
        NodeMeta,
    ),
    /// The cluster routing table.
    Routing(
        /// The table, byte-identical to its snapshot form.
        ShardRouter,
    ),
    /// Travel-time answer: the multiset in index scan order (bit-exact
    /// f64s) plus the speed-limit-fallback flag.
    TravelTimesResult {
        /// The travel-time values.
        values: Vec<f64>,
        /// Whether they are the single speed-limit estimate.
        fallback: bool,
    },
    /// Ladder-batch answer: one result per request item, in item order —
    /// never a partial reply (a bad item fails the whole batch typed).
    LadderBatchResult {
        /// Per item `(level, values, fallback)`: the index into the
        /// item's `levels` that answered (or the last level, with no
        /// values, when every level failed), the travel times at that
        /// level, and whether they are the single speed-limit estimate.
        results: Vec<(u32, Vec<f64>, bool)>,
    },
    /// Count answer.
    CountResult(
        /// The (capped) count.
        u64,
    ),
    /// Estimate answer (bit-exact).
    EstimateResult(
        /// The estimated cardinality.
        f64,
    ),
    /// Append acknowledgement.
    Appended {
        /// Trajectories this shard indexed from the record.
        appended: u64,
        /// The node's post-apply global trajectory count.
        total: u64,
    },
    /// One chunk of a snapshot transfer. `stamp` identifies the blob
    /// (the node's `num_global` when it was serialized): a resuming
    /// client that sees the stamp change mid-transfer must restart at
    /// offset 0, because the blob it was assembling no longer exists.
    SnapshotChunk {
        /// `num_global` of the serialized state — the blob's identity.
        stamp: u64,
        /// Byte offset of this chunk within the blob.
        offset: u64,
        /// Total size of the blob in bytes.
        total: u64,
        /// The chunk bytes (`offset + data.len() <= total`).
        data: Vec<u8>,
    },
    /// A page of WAL records answering [`Message::TailWal`].
    WalRecords {
        /// Retained records with base stamp `>= from_stamp`, in stamp
        /// order (possibly capped — re-poll immediately while behind).
        records: Vec<NodeWalRecord>,
        /// The node's `num_global` at reply time, so the tailer can see
        /// remaining lag even on a capped page.
        end_stamp: u64,
    },
    /// Replication status, answering [`Message::Health`] and
    /// [`Message::Promote`].
    ReplStatus {
        /// The node's role.
        role: Role,
        /// Trajectory stamp the node has applied up to (`num_global`).
        applied_stamp: u64,
        /// Stamp covered by the node's on-disk snapshot (its WAL replays
        /// `snapshot_stamp..applied_stamp`).
        snapshot_stamp: u64,
    },
    /// Typed failure.
    Err {
        /// The error class.
        code: ErrCode,
        /// For [`ErrCode::WalGap`]: the stamp the node expected.
        expected: u64,
        /// For [`ErrCode::WalGap`]: the stamp the record carried.
        found: u64,
        /// Human-readable detail.
        message: String,
    },
}

const TAG_HEALTH: u8 = 1;
const TAG_GET_META: u8 = 2;
const TAG_GET_ROUTING: u8 = 3;
const TAG_TRAVEL_TIMES: u8 = 4;
const TAG_COUNT: u8 = 5;
const TAG_ESTIMATE: u8 = 6;
const TAG_APPEND: u8 = 7;
const TAG_SNAPSHOT: u8 = 8;
const TAG_FETCH_SNAPSHOT: u8 = 9;
const TAG_TAIL_WAL: u8 = 10;
const TAG_PROMOTE: u8 = 11;
const TAG_LADDER_BATCH: u8 = 13;
const TAG_OK: u8 = 16;
const TAG_META: u8 = 17;
const TAG_ROUTING: u8 = 18;
const TAG_TT_RESULT: u8 = 19;
const TAG_COUNT_RESULT: u8 = 20;
const TAG_ESTIMATE_RESULT: u8 = 21;
const TAG_APPENDED: u8 = 22;
const TAG_SNAPSHOT_CHUNK: u8 = 23;
const TAG_WAL_RECORDS: u8 = 24;
const TAG_REPL_STATUS: u8 = 25;
const TAG_LADDER_BATCH_RESULT: u8 = 27;
const TAG_ERR: u8 = 31;

fn put_interval(w: &mut ByteWriter, interval: &TimeInterval) {
    match *interval {
        TimeInterval::Fixed { start, end } => {
            w.put_u8(0);
            w.put_i64(start);
            w.put_i64(end);
        }
        TimeInterval::Periodic { start_sod, len } => {
            w.put_u8(1);
            w.put_i64(start_sod);
            w.put_i64(len);
        }
    }
}

fn get_interval(r: &mut ByteReader<'_>) -> Result<TimeInterval, FrameError> {
    Ok(match r.get_u8()? {
        0 => {
            let start = r.get_i64()?;
            let end = r.get_i64()?;
            if start >= end {
                return Err(FrameError::Body(format!(
                    "empty fixed interval [{start}, {end})"
                )));
            }
            TimeInterval::Fixed { start, end }
        }
        1 => {
            let start_sod = r.get_i64()?;
            let len = r.get_i64()?;
            if !(0..SECONDS_PER_DAY).contains(&start_sod) || !(1..=SECONDS_PER_DAY).contains(&len) {
                return Err(FrameError::Body(format!(
                    "periodic interval start_sod {start_sod}, len {len}"
                )));
            }
            TimeInterval::Periodic { start_sod, len }
        }
        other => return Err(FrameError::Body(format!("interval tag {other}"))),
    })
}

fn put_spq(w: &mut ByteWriter, spq: &Spq) {
    let edges: Vec<u32> = spq.path.edges().iter().map(|e| e.0).collect();
    w.put_seq(&edges);
    put_interval(w, &spq.interval);
    match spq.filter {
        Filter::None => w.put_u8(0),
        Filter::User(UserId(u)) => {
            w.put_u8(1);
            w.put_u32(u);
        }
    }
    spq.beta.persist(w);
    spq.exclude.map(|t| t.0).persist(w);
}

fn get_spq(r: &mut ByteReader<'_>) -> Result<Spq, FrameError> {
    let edges: Vec<u32> = r.get_seq()?;
    if edges.is_empty() {
        return Err(FrameError::Body("empty query path".into()));
    }
    let path = Path::new(edges.into_iter().map(EdgeId).collect());
    let interval = get_interval(r)?;
    let filter = match r.get_u8()? {
        0 => Filter::None,
        1 => Filter::User(UserId(r.get_u32()?)),
        other => return Err(FrameError::Body(format!("filter tag {other}"))),
    };
    let beta: Option<u32> = Option::restore(r)?;
    let exclude: Option<u32> = Option::restore(r)?;
    Ok(Spq {
        path,
        interval,
        filter,
        beta,
        exclude: exclude.map(TrajId),
    })
}

fn mode_tag(mode: CardinalityMode) -> u8 {
    match mode {
        CardinalityMode::Isa => 0,
        CardinalityMode::BtFast => 1,
        CardinalityMode::BtAcc => 2,
        CardinalityMode::CssFast => 3,
        CardinalityMode::CssAcc => 4,
    }
}

fn mode_from_tag(tag: u8) -> Result<CardinalityMode, FrameError> {
    Ok(match tag {
        0 => CardinalityMode::Isa,
        1 => CardinalityMode::BtFast,
        2 => CardinalityMode::BtAcc,
        3 => CardinalityMode::CssFast,
        4 => CardinalityMode::CssAcc,
        other => return Err(FrameError::Body(format!("cardinality mode tag {other}"))),
    })
}

fn put_string(w: &mut ByteWriter, s: &str) {
    w.put_len(s.len());
    w.put_bytes(s.as_bytes());
}

fn get_string(r: &mut ByteReader<'_>) -> Result<String, FrameError> {
    let n = r.get_len(1)?;
    let bytes = r.get_bytes(n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Body("non-UTF-8 text".into()))
}

/// Wire size of an interval: tag + two `i64`s.
const INTERVAL_BYTES: usize = 17;
/// Least wire size of a `LadderBatch` item: an SPQ of one edge (edge
/// count + edge, interval, filter tag, two `Option` tags) + level count.
const ITEM_MIN_BYTES: usize = 8 + 4 + INTERVAL_BYTES + 3 + 8;
/// Least wire size of a `LadderBatchResult` entry: level + value count +
/// fallback flag.
const RESULT_MIN_BYTES: usize = 4 + 8 + 1;

/// A sequence length checked against the bytes left (`min_item_size`
/// each) *and* a protocol cap, before the caller allocates for it.
fn get_capped_len(
    r: &mut ByteReader<'_>,
    min_item_size: usize,
    cap: usize,
    what: &str,
) -> Result<usize, FrameError> {
    let n = r.get_len(min_item_size)?;
    if n > cap {
        return Err(FrameError::Body(format!(
            "{n} {what} exceed the cap of {cap}"
        )));
    }
    Ok(n)
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Health => TAG_HEALTH,
            Message::GetMeta => TAG_GET_META,
            Message::GetRouting => TAG_GET_ROUTING,
            Message::TravelTimes(_) => TAG_TRAVEL_TIMES,
            Message::Count { .. } => TAG_COUNT,
            Message::Estimate { .. } => TAG_ESTIMATE,
            Message::Append(_) => TAG_APPEND,
            Message::Snapshot => TAG_SNAPSHOT,
            Message::FetchSnapshot { .. } => TAG_FETCH_SNAPSHOT,
            Message::TailWal { .. } => TAG_TAIL_WAL,
            Message::Promote => TAG_PROMOTE,
            Message::LadderBatch { .. } => TAG_LADDER_BATCH,
            Message::Ok => TAG_OK,
            Message::Meta(_) => TAG_META,
            Message::Routing(_) => TAG_ROUTING,
            Message::TravelTimesResult { .. } => TAG_TT_RESULT,
            Message::LadderBatchResult { .. } => TAG_LADDER_BATCH_RESULT,
            Message::CountResult(_) => TAG_COUNT_RESULT,
            Message::EstimateResult(_) => TAG_ESTIMATE_RESULT,
            Message::Appended { .. } => TAG_APPENDED,
            Message::SnapshotChunk { .. } => TAG_SNAPSHOT_CHUNK,
            Message::WalRecords { .. } => TAG_WAL_RECORDS,
            Message::ReplStatus { .. } => TAG_REPL_STATUS,
            Message::Err { .. } => TAG_ERR,
        }
    }

    fn put_payload(&self, w: &mut ByteWriter) {
        match self {
            Message::Health
            | Message::GetMeta
            | Message::GetRouting
            | Message::Snapshot
            | Message::Promote
            | Message::Ok => {}
            Message::FetchSnapshot { offset } => w.put_u64(*offset),
            Message::TailWal { from_stamp } => w.put_u64(*from_stamp),
            Message::SnapshotChunk {
                stamp,
                offset,
                total,
                data,
            } => {
                w.put_u64(*stamp);
                w.put_u64(*offset);
                w.put_u64(*total);
                w.put_len(data.len());
                w.put_bytes(data);
            }
            Message::WalRecords { records, end_stamp } => {
                w.put_seq(records);
                w.put_u64(*end_stamp);
            }
            Message::ReplStatus {
                role,
                applied_stamp,
                snapshot_stamp,
            } => {
                w.put_u8(role.tag());
                w.put_u64(*applied_stamp);
                w.put_u64(*snapshot_stamp);
            }
            Message::TravelTimes(spq) => put_spq(w, spq),
            Message::Count { spq, cap } => {
                put_spq(w, spq);
                w.put_u32(*cap);
            }
            Message::Estimate { spq, mode } => {
                put_spq(w, spq);
                w.put_u8(mode_tag(*mode));
            }
            Message::LadderBatch { items } => {
                w.put_len(items.len());
                for (spq, levels) in items {
                    put_spq(w, spq);
                    w.put_len(levels.len());
                    for level in levels {
                        put_interval(w, level);
                    }
                }
            }
            Message::LadderBatchResult { results } => {
                w.put_len(results.len());
                for (level, values, fallback) in results {
                    w.put_u32(*level);
                    w.put_seq(values);
                    fallback.persist(w);
                }
            }
            Message::Append(record) => record.persist(w),
            Message::Meta(meta) => meta.persist(w),
            Message::Routing(router) => router.persist(w),
            Message::TravelTimesResult { values, fallback } => {
                w.put_seq(values);
                fallback.persist(w);
            }
            Message::CountResult(n) => w.put_u64(*n),
            Message::EstimateResult(v) => w.put_f64(*v),
            Message::Appended { appended, total } => {
                w.put_u64(*appended);
                w.put_u64(*total);
            }
            Message::Err {
                code,
                expected,
                found,
                message,
            } => {
                w.put_u8(code.tag());
                w.put_u64(*expected);
                w.put_u64(*found);
                put_string(w, message);
            }
        }
    }

    fn from_body(tag: u8, payload: &[u8]) -> Result<Message, FrameError> {
        let mut r = ByteReader::new(payload);
        let message = match tag {
            TAG_HEALTH => Message::Health,
            TAG_GET_META => Message::GetMeta,
            TAG_GET_ROUTING => Message::GetRouting,
            TAG_TRAVEL_TIMES => Message::TravelTimes(get_spq(&mut r)?),
            TAG_COUNT => {
                let spq = get_spq(&mut r)?;
                let cap = r.get_u32()?;
                Message::Count { spq, cap }
            }
            TAG_ESTIMATE => {
                let spq = get_spq(&mut r)?;
                let mode = mode_from_tag(r.get_u8()?)?;
                Message::Estimate { spq, mode }
            }
            TAG_APPEND => Message::Append(NodeWalRecord::restore(&mut r)?),
            TAG_SNAPSHOT => Message::Snapshot,
            TAG_FETCH_SNAPSHOT => Message::FetchSnapshot {
                offset: r.get_u64()?,
            },
            TAG_TAIL_WAL => Message::TailWal {
                from_stamp: r.get_u64()?,
            },
            TAG_PROMOTE => Message::Promote,
            TAG_LADDER_BATCH => {
                // Counts are bounded — against the protocol caps and the
                // bytes left — before anything is allocated; whether the
                // windows form ladders is the node's (typed,
                // connection-preserving) check.
                let n = get_capped_len(&mut r, ITEM_MIN_BYTES, MAX_LADDER_BATCH, "ladders")?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let spq = get_spq(&mut r)?;
                    let m = get_capped_len(&mut r, INTERVAL_BYTES, MAX_LADDER_LEVELS, "levels")?;
                    let levels = (0..m)
                        .map(|_| get_interval(&mut r))
                        .collect::<Result<Vec<_>, _>>()?;
                    items.push((spq, levels));
                }
                Message::LadderBatch { items }
            }
            TAG_LADDER_BATCH_RESULT => {
                let n = get_capped_len(&mut r, RESULT_MIN_BYTES, MAX_LADDER_BATCH, "results")?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    let level = r.get_u32()?;
                    let values: Vec<f64> = r.get_seq()?;
                    let fallback = bool::restore(&mut r)?;
                    results.push((level, values, fallback));
                }
                Message::LadderBatchResult { results }
            }
            // Retired with the per-ladder pair (`Ladder` / `LadderResult`);
            // the numbers stay reserved so an old peer fails typed.
            tag @ (12 | 26) => return Err(FrameError::Tag(tag)),
            TAG_OK => Message::Ok,
            TAG_META => Message::Meta(NodeMeta::restore(&mut r)?),
            TAG_ROUTING => Message::Routing(ShardRouter::restore(&mut r)?),
            TAG_TT_RESULT => {
                let values: Vec<f64> = r.get_seq()?;
                let fallback = bool::restore(&mut r)?;
                Message::TravelTimesResult { values, fallback }
            }
            TAG_COUNT_RESULT => Message::CountResult(r.get_u64()?),
            TAG_ESTIMATE_RESULT => Message::EstimateResult(r.get_f64()?),
            TAG_APPENDED => {
                let appended = r.get_u64()?;
                let total = r.get_u64()?;
                Message::Appended { appended, total }
            }
            TAG_SNAPSHOT_CHUNK => {
                let stamp = r.get_u64()?;
                let offset = r.get_u64()?;
                let total = r.get_u64()?;
                let n = r.get_len(1)?;
                let data = r.get_bytes(n)?.to_vec();
                let end = offset.checked_add(data.len() as u64);
                if end.map(|e| e > total).unwrap_or(true) {
                    return Err(FrameError::Body(format!(
                        "snapshot chunk [{offset}, {offset}+{}) outside blob of {total} bytes",
                        data.len()
                    )));
                }
                Message::SnapshotChunk {
                    stamp,
                    offset,
                    total,
                    data,
                }
            }
            TAG_WAL_RECORDS => {
                let records: Vec<NodeWalRecord> = r.get_seq()?;
                let end_stamp = r.get_u64()?;
                Message::WalRecords { records, end_stamp }
            }
            TAG_REPL_STATUS => {
                let role = Role::from_tag(r.get_u8()?)?;
                let applied_stamp = r.get_u64()?;
                let snapshot_stamp = r.get_u64()?;
                if snapshot_stamp > applied_stamp {
                    return Err(FrameError::Body(format!(
                        "snapshot stamp {snapshot_stamp} ahead of applied stamp {applied_stamp}"
                    )));
                }
                Message::ReplStatus {
                    role,
                    applied_stamp,
                    snapshot_stamp,
                }
            }
            TAG_ERR => {
                let code = ErrCode::from_tag(r.get_u8()?)?;
                let expected = r.get_u64()?;
                let found = r.get_u64()?;
                let message = get_string(&mut r)?;
                Message::Err {
                    code,
                    expected,
                    found,
                    message,
                }
            }
            other => return Err(FrameError::Tag(other)),
        };
        r.expect_exhausted("frame payload")?;
        Ok(message)
    }

    /// Convenience constructor for [`Message::Err`] without gap stamps.
    pub fn error(code: ErrCode, message: impl Into<String>) -> Message {
        Message::Err {
            code,
            expected: 0,
            found: 0,
            message: message.into(),
        }
    }
}

/// Encodes one message as a complete frame: the header's eight bytes
/// are reserved up front and patched once the body behind them is
/// written, so the body is never copied.
pub fn encode_frame(message: &Message) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&[0; FRAME_HEADER]);
    w.put_u8(message.tag());
    message.put_payload(&mut w);
    let mut frame = w.into_bytes();
    let (header, body) = frame.split_at_mut(FRAME_HEADER);
    debug_assert!(body.len() as u64 <= MAX_FRAME_BODY as u64);
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
    frame
}

/// The outcome of one incremental decode attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Decode {
    /// More bytes are needed; nothing was consumed.
    Incomplete,
    /// One complete frame was decoded.
    Done {
        /// The decoded message.
        message: Message,
        /// Bytes the frame occupied — drain this many before the next
        /// decode (frames may be pipelined back to back).
        consumed: usize,
    },
}

/// Decodes the first frame of `buf`, incrementally: every strict prefix
/// of a valid frame is [`Decode::Incomplete`]; a bad length is rejected
/// as soon as the length field is readable, a bad CRC or payload as soon
/// as the full body is. Never panics.
pub fn decode_frame(buf: &[u8]) -> Result<Decode, FrameError> {
    if buf.len() < 4 {
        return Ok(Decode::Incomplete);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 || len > MAX_FRAME_BODY {
        return Err(FrameError::Length { len });
    }
    let total = FRAME_HEADER + len as usize;
    if buf.len() < total {
        return Ok(Decode::Incomplete);
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let body = &buf[FRAME_HEADER..total];
    let actual = crc32(body);
    if actual != expected {
        return Err(FrameError::Crc { expected, actual });
    }
    let message = Message::from_body(body[0], &body[1..])?;
    Ok(Decode::Done {
        message,
        consumed: total,
    })
}

/// A blocking-transport error: either the socket failed or the peer
/// violated the protocol.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (retryable at the client's
    /// discretion — the request may or may not have been processed).
    Io(std::io::Error),
    /// The peer sent bytes that are not a valid frame (never retryable).
    Frame(FrameError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Frame(e) => write!(f, "wire frame: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

/// Writes one frame to a blocking stream (plus flush).
pub fn write_frame<W: Write>(out: &mut W, message: &Message) -> std::io::Result<()> {
    out.write_all(&encode_frame(message))?;
    out.flush()
}

/// Reads one frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean end of stream (EOF before the first
/// header byte); EOF anywhere inside a frame is
/// [`FrameError::Truncated`].
pub fn read_frame<R: Read>(input: &mut R) -> Result<Option<Message>, WireError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < header.len() {
        let n = input.read(&mut header[got..])?;
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(FrameError::Truncated.into())
            };
        }
        got += n;
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len == 0 || len > MAX_FRAME_BODY {
        return Err(FrameError::Length { len }.into());
    }
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let mut body = vec![0u8; len as usize];
    let mut got = 0;
    while got < body.len() {
        let n = input.read(&mut body[got..])?;
        if n == 0 {
            return Err(FrameError::Truncated.into());
        }
        got += n;
    }
    let actual = crc32(&body);
    if actual != expected {
        return Err(FrameError::Crc { expected, actual }.into());
    }
    Ok(Some(Message::from_body(body[0], &body[1..])?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_is_the_wal_record_layout() {
        let frame = encode_frame(&Message::Health);
        assert_eq!(frame.len(), FRAME_HEADER + 1);
        assert_eq!(u32::from_le_bytes(frame[0..4].try_into().unwrap()), 1);
        assert_eq!(
            u32::from_le_bytes(frame[4..8].try_into().unwrap()),
            crc32(&[TAG_HEALTH])
        );
        assert_eq!(frame[8], TAG_HEALTH);
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let mut buf = encode_frame(&Message::Health);
        buf.extend_from_slice(&encode_frame(&Message::CountResult(9)));
        let Decode::Done { message, consumed } = decode_frame(&buf).unwrap() else {
            panic!("first frame is complete");
        };
        assert_eq!(message, Message::Health);
        let Decode::Done { message, .. } = decode_frame(&buf[consumed..]).unwrap() else {
            panic!("second frame is complete");
        };
        assert_eq!(message, Message::CountResult(9));
    }

    #[test]
    fn zero_and_oversized_lengths_are_typed() {
        assert!(matches!(
            decode_frame(&[0, 0, 0, 0, 1, 2, 3, 4]),
            Err(FrameError::Length { len: 0 })
        ));
        let huge = (MAX_FRAME_BODY + 1).to_le_bytes();
        assert!(matches!(
            decode_frame(&[huge[0], huge[1], huge[2], huge[3]]),
            Err(FrameError::Length { .. })
        ));
    }

    #[test]
    fn clean_eof_is_none_and_torn_eof_is_truncated() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        let frame = encode_frame(&Message::GetMeta);
        let mut torn: &[u8] = &frame[..frame.len() - 1];
        assert!(matches!(
            read_frame(&mut torn),
            Err(WireError::Frame(FrameError::Truncated))
        ));
    }
}
