//! Property battery for the binary frame codec, mirroring the HTTP
//! parser's (`crates/server/tests/http_parser.rs`): one-shot and
//! incremental decoding agree on every split boundary for **every** frame
//! type, single-byte corruption maps to a typed [`FrameError`] (never a
//! panic, never a silently different message), raw fuzz bytes never
//! panic either decoder, and the ladder-batch frames — the only ones
//! whose payload nests two attacker-declared counts — survive a mutation
//! loop that re-seals the CRC so every mutant reaches the payload parser:
//! typed error or success, and no allocation a declared count alone
//! could buy.

use proptest::collection;
use tthr_core::node::{NodeWalRecord, MAX_LADDER_BATCH, MAX_LADDER_LEVELS};
use tthr_core::{CardinalityMode, ShardRouter, Spq, TimeInterval};
use tthr_network::examples::example_network;
use tthr_network::{EdgeId, Path};
use tthr_rpc::{
    decode_frame, encode_frame, read_frame, Decode, ErrCode, FrameError, Message, NodeMeta, Role,
    WireError, FRAME_HEADER,
};
use tthr_trajectory::{TrajEntry, TrajId, UserId};

/// The raw ingredients one proptest case draws; every frame type is built
/// from the same bag so a single case covers the whole tag space.
#[allow(clippy::too_many_arguments)]
fn build_messages(
    edges: Vec<u32>,
    periodic: bool,
    istart: i64,
    ilen: i64,
    filter: u8,
    beta: Option<u32>,
    exclude: Option<u32>,
    cap: u32,
    mode: u8,
    base: u64,
    raw_entries: Vec<(u32, i64, i64)>,
    k: usize,
    values: Vec<f64>,
    fallback: bool,
    code: u8,
    text: Vec<u8>,
) -> Vec<Message> {
    let interval = if periodic {
        TimeInterval::periodic(istart.rem_euclid(86_400), ilen.clamp(1, 86_400))
    } else {
        TimeInterval::fixed(istart, istart + ilen.max(1))
    };
    let mut spq = Spq::new(
        Path::new(edges.iter().map(|&e| EdgeId(e)).collect()),
        interval,
    );
    if filter == 1 {
        spq = spq.with_user(UserId(cap % 97));
    }
    spq.beta = beta;
    spq.exclude = exclude.map(TrajId);
    let mode = CardinalityMode::ALL[mode as usize % CardinalityMode::ALL.len()];
    let entries: Vec<TrajEntry> = raw_entries
        .iter()
        .map(|&(e, t, tt)| TrajEntry::new(EdgeId(e), t, tt as f64))
        .collect();
    let record = NodeWalRecord {
        base,
        new_total: base + 2,
        span_min: istart,
        span_max: istart + ilen.max(1),
        members: vec![base as u32, base as u32 + 1],
        trajectories: vec![(UserId(3), entries.clone()), (UserId(4), entries)],
    };
    let meta = NodeMeta {
        shard: (k - 1) as u16,
        num_shards: k as u32,
        num_edges: 50,
        num_global: base + 2,
        num_members: base,
        num_partitions: 1 + base % 5,
        span_min: istart,
        span_max: istart + ilen.max(1),
    };
    let codes = [
        ErrCode::BadRequest,
        ErrCode::Corrupt,
        ErrCode::WalGap,
        ErrCode::Internal,
        ErrCode::NotPrimary,
    ];
    let message: String = text.iter().map(|&b| (b'a' + b % 26) as char).collect();
    // `k` items, each the SPQ's own window plus `code % 4` windows of any
    // kind: the codec carries level lists verbatim — whether they nest is
    // the node's check.
    let levels: Vec<TimeInterval> = std::iter::once(spq.interval)
        .chain((1..=code as i64 % 4).map(|i| TimeInterval::periodic(istart + i, ilen * i)))
        .collect();
    let items = vec![(spq.clone(), levels); k];
    vec![
        Message::Health,
        Message::GetMeta,
        Message::GetRouting,
        Message::TravelTimes(spq.clone()),
        Message::Count {
            spq: spq.clone(),
            cap,
        },
        Message::Estimate {
            spq: spq.clone(),
            mode,
        },
        Message::Append(record.clone()),
        Message::Snapshot,
        Message::FetchSnapshot { offset: base },
        Message::TailWal { from_stamp: base },
        Message::Promote,
        Message::LadderBatch { items },
        Message::Ok,
        Message::Meta(meta),
        Message::Routing(ShardRouter::build(&example_network(), k)),
        Message::TravelTimesResult {
            values: values.clone(),
            fallback,
        },
        Message::LadderBatchResult {
            results: vec![(cap % 8, values, fallback); k],
        },
        Message::CountResult(base),
        Message::EstimateResult(istart as f64 + 0.5),
        Message::Appended {
            appended: base % 7,
            total: base,
        },
        Message::SnapshotChunk {
            stamp: base,
            offset: text.len() as u64,
            total: text.len() as u64 + base % 64 + 1,
            data: vec![0xAB; (base % 64) as usize],
        },
        Message::WalRecords {
            records: vec![record],
            end_stamp: base + 2,
        },
        Message::ReplStatus {
            role: if fallback {
                Role::Standby
            } else {
                Role::Primary
            },
            applied_stamp: base + 1,
            snapshot_stamp: base,
        },
        Message::Err {
            code: codes[code as usize % codes.len()],
            expected: base,
            found: base + 1,
            message,
        },
    ]
}

macro_rules! all_messages {
    ($($p:ident),*) => {
        build_messages($($p),*)
    };
}

proptest::proptest! {
    /// One-shot decode inverts encode for every frame type, and every
    /// strict prefix of every frame is `Incomplete` — the incremental
    /// decoder can never mis-parse a partially received frame.
    #[test]
    fn round_trip_every_variant_at_every_split(
        edges in collection::vec(0u32..50, 1..5),
        periodic in proptest::bool::ANY,
        istart in -1000i64..1000,
        ilen in 1i64..5000,
        filter in 0u8..2,
        beta_some in proptest::bool::ANY,
        beta in 0u32..50,
        excl_some in proptest::bool::ANY,
        excl in 0u32..50,
        cap in 0u32..100000,
        mode in 0u8..5,
        base in 0u64..1000,
        raw_entries in collection::vec((0u32..50, 0i64..100000, 1i64..500), 1..4),
        k in 1usize..5,
        values in collection::vec(0.5f64..5000.0, 0..6),
        fallback in proptest::bool::ANY,
        code in 0u8..8,
        text in collection::vec(0u8..255, 0..24),
    ) {
        let beta = beta_some.then_some(beta);
        let exclude = excl_some.then_some(excl);
        let messages = all_messages!(
            edges, periodic, istart, ilen, filter, beta, exclude, cap, mode,
            base, raw_entries, k, values, fallback, code, text
        );
        assert_eq!(messages.len(), 24, "every tag is exercised");
        for message in messages {
            let frame = encode_frame(&message);
            match decode_frame(&frame) {
                Ok(Decode::Done { message: got, consumed }) => {
                    proptest::prop_assert_eq!(&got, &message);
                    proptest::prop_assert_eq!(consumed, frame.len());
                }
                other => panic!("complete frame must decode: {other:?}"),
            }
            for cut in 0..frame.len() {
                match decode_frame(&frame[..cut]) {
                    Ok(Decode::Incomplete) => {}
                    other => panic!("strict prefix of {cut} bytes: {other:?}"),
                }
                // ... and the blocking reader sees the same prefix as torn.
                let mut torn: &[u8] = &frame[..cut];
                match read_frame(&mut torn) {
                    Ok(None) => proptest::prop_assert_eq!(cut, 0),
                    Err(WireError::Frame(FrameError::Truncated)) => {}
                    other => panic!("torn after {cut} bytes: {other:?}"),
                }
            }
            // The blocking reader agrees with the incremental decoder.
            let mut cursor: &[u8] = &frame;
            let got = read_frame(&mut cursor).unwrap().expect("one frame");
            proptest::prop_assert_eq!(&got, &message);
            proptest::prop_assert!(cursor.is_empty());
        }
    }

    /// Pipelined frames decode one at a time with exact `consumed`
    /// offsets, in order, regardless of where the stream is split.
    #[test]
    fn pipelined_frames_decode_in_order(
        count_a in 0u64..1000,
        count_b in 0u64..1000,
        split in 0usize..60,
    ) {
        let first = encode_frame(&Message::CountResult(count_a));
        let second = encode_frame(&Message::Appended { appended: count_b, total: count_b + 1 });
        let mut stream = first.clone();
        stream.extend_from_slice(&second);
        // Whatever prefix of the stream has arrived, decoding yields
        // either Incomplete or the first frame — never the second.
        let cut = split % stream.len();
        match decode_frame(&stream[..cut]).unwrap() {
            Decode::Incomplete => proptest::prop_assert!(cut < first.len() + FRAME_HEADER),
            Decode::Done { message, consumed } => {
                proptest::prop_assert_eq!(&message, &Message::CountResult(count_a));
                proptest::prop_assert_eq!(consumed, first.len());
            }
        }
        let Decode::Done { message, consumed } = decode_frame(&stream).unwrap() else {
            panic!("complete stream");
        };
        proptest::prop_assert_eq!(&message, &Message::CountResult(count_a));
        let Decode::Done { message, consumed: used } = decode_frame(&stream[consumed..]).unwrap()
        else {
            panic!("second frame complete");
        };
        proptest::prop_assert_eq!(&message, &Message::Appended { appended: count_b, total: count_b + 1 });
        proptest::prop_assert_eq!(consumed + used, stream.len());
    }

    /// Flipping any single byte of a valid frame never panics and never
    /// yields a different message: the CRC (or the length/tag/payload
    /// validation) catches it with a typed error, or — when the flip
    /// enlarges the claimed length — the decoder just waits for bytes
    /// that will never come.
    #[test]
    fn single_byte_corruption_is_typed(
        base in 0u64..1000,
        cap in 1u32..1000,
        edges in collection::vec(0u32..50, 1..4),
        flip_at in 0usize..4096,
        flip_to in 1u8..255,
    ) {
        let spq = Spq::new(
            Path::new(edges.iter().map(|&e| EdgeId(e)).collect()),
            TimeInterval::fixed(0, 100),
        );
        let window = TimeInterval::periodic(base as i64, 900);
        for message in [
            Message::Count { spq: spq.clone(), cap },
            ladder_batch(&spq, window, cap),
            ladder_batch_result(base, cap),
            Message::Append(NodeWalRecord {
                base,
                new_total: base + 1,
                span_min: 0,
                span_max: 10,
                members: vec![base as u32],
                trajectories: vec![(UserId(1), vec![TrajEntry::new(EdgeId(0), 1, 2.0)])],
            }),
            Message::Err {
                code: ErrCode::WalGap,
                expected: base,
                found: base + 1,
                message: "gap".into(),
            },
        ] {
            let mut frame = encode_frame(&message);
            let at = flip_at % frame.len();
            frame[at] ^= flip_to;
            match decode_frame(&frame) {
                // A flip that grows the length field legitimately reads
                // as an incomplete longer frame.
                Ok(Decode::Incomplete) => proptest::prop_assert!(at < 4),
                Ok(Decode::Done { message: got, .. }) => {
                    panic!("corrupt frame decoded as {got:?}")
                }
                Err(
                    FrameError::Length { .. }
                    | FrameError::Crc { .. }
                    | FrameError::Tag(_)
                    | FrameError::Body(_),
                ) => {}
                Err(FrameError::Truncated) => panic!("incremental decode never reports Truncated"),
            }
            // The blocking reader is typed too (corrupt frame or torn
            // stream, depending on where the flip landed).
            let mut cursor: &[u8] = &frame;
            match read_frame(&mut cursor) {
                Ok(Some(got)) => panic!("corrupt frame read as {got:?}"),
                Ok(None) => panic!("a non-empty stream is not a clean EOF"),
                Err(WireError::Frame(_)) => {}
                Err(WireError::Io(e)) => panic!("in-memory read cannot fail with i/o: {e}"),
            }
        }
    }

    /// Arbitrary bytes never panic either decoder.
    #[test]
    fn raw_fuzz_never_panics(fuzz in collection::vec(0u8..255, 0..256)) {
        let _ = decode_frame(&fuzz);
        let mut cursor: &[u8] = &fuzz;
        let _ = read_frame(&mut cursor);
    }

    /// A chunked snapshot transfer that is interrupted and resumed from
    /// the client's last byte reassembles the blob byte-identically, with
    /// every chunk surviving the wire (the standby bootstrap path).
    #[test]
    fn resumed_snapshot_chunks_reassemble_byte_identically(
        blob in collection::vec(0u8..255, 1..2048),
        chunk in 1usize..257,
        interrupt_at in 0usize..2048,
    ) {
        let stamp = 7u64;
        let total = blob.len() as u64;
        let interrupt = interrupt_at % blob.len();
        let mut got: Vec<u8> = Vec::new();
        // Pass 0 emulates a transfer that dies once it has delivered
        // `interrupt` bytes; pass 1 resumes from the exact byte the
        // client already has (`offset = got.len()`), as the bootstrap
        // loop does.
        for stop in [interrupt, blob.len()] {
            while got.len() < stop {
                let offset = got.len();
                let end = (offset + chunk).min(blob.len());
                let frame = encode_frame(&Message::SnapshotChunk {
                    stamp,
                    offset: offset as u64,
                    total,
                    data: blob[offset..end].to_vec(),
                });
                let Ok(Decode::Done { message, .. }) = decode_frame(&frame) else {
                    panic!("complete chunk frame must decode");
                };
                let Message::SnapshotChunk { stamp: s, offset: o, total: t, data } = message
                else {
                    panic!("chunk decodes as a chunk");
                };
                proptest::prop_assert_eq!(s, stamp);
                proptest::prop_assert_eq!(o as usize, offset);
                proptest::prop_assert_eq!(t, total);
                got.extend_from_slice(&data);
            }
        }
        proptest::prop_assert_eq!(&got, &blob);
    }
}

/// A two-item batch: a three-level ladder and a ladder of one.
fn ladder_batch(spq: &Spq, window: TimeInterval, beta: u32) -> Message {
    Message::LadderBatch {
        items: vec![
            (
                Spq::new(spq.path.clone(), window).with_beta(beta),
                vec![window, window.widen(1800), window.widen(1800).widen(2700)],
            ),
            (spq.clone(), vec![spq.interval]),
        ],
    }
}

fn ladder_batch_result(base: u64, cap: u32) -> Message {
    Message::LadderBatchResult {
        results: vec![
            (cap % 3, vec![base as f64 + 0.5, cap as f64], false),
            (0, vec![], false),
            (0, vec![1.0], true),
        ],
    }
}

/// Item and level counts beyond the wire's caps are rejected while
/// decoding — before anything is allocated — with a typed payload error.
#[test]
fn oversized_ladder_is_a_typed_payload_error() {
    let window = TimeInterval::periodic(0, 900);
    let batch = |items: usize, levels: usize| Message::LadderBatch {
        items: vec![
            (
                Spq::new(Path::new(vec![EdgeId(1)]), window),
                vec![window; levels]
            );
            items
        ],
    };
    let results = |n: usize| Message::LadderBatchResult {
        results: vec![(0, vec![1.0], false); n],
    };
    for ok in [
        batch(0, 0),
        batch(MAX_LADDER_BATCH, MAX_LADDER_LEVELS),
        results(MAX_LADDER_BATCH),
    ] {
        assert!(matches!(
            decode_frame(&encode_frame(&ok)),
            Ok(Decode::Done { .. })
        ));
    }
    for oversized in [
        batch(1, MAX_LADDER_LEVELS + 1),
        batch(MAX_LADDER_BATCH + 1, 1),
        results(MAX_LADDER_BATCH + 1),
    ] {
        assert!(matches!(
            decode_frame(&encode_frame(&oversized)),
            Err(FrameError::Body(_))
        ));
    }
}

/// The per-ladder pair's tags are retired, not recycled: a peer that
/// still sends them gets a typed unknown-tag error.
#[test]
fn retired_ladder_tags_are_typed_unknown_tags() {
    for tag in [12u8, 26] {
        let mut frame = encode_frame(&Message::Health);
        frame[FRAME_HEADER] = tag;
        reseal(&mut frame);
        assert_eq!(decode_frame(&frame), Err(FrameError::Tag(tag)));
    }
}

/// Rewrites the header of a (mutated) frame so length and CRC match its
/// body again — the mutant then reaches the payload parser.
fn reseal(frame: &mut [u8]) {
    let (header, body) = frame.split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&tthr_store::crc32(body).to_le_bytes());
}

/// The largest single allocation this thread requested since the last
/// reset — how the mutation loop sees what a declared count made the
/// decoder reserve.
mod peak_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) struct Tracking;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the bookkeeping touches
    // only a const-initialised, destructor-free thread-local `Cell`
    // (`try_with` so a call during thread teardown is skipped, not a
    // panic) and never allocates.
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    fn note(size: usize) {
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
    }

    /// Runs `f`, returning its result and the largest single allocation
    /// it requested on this thread.
    pub(crate) fn of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        PEAK.with(|peak| peak.set(0));
        let out = f();
        (out, PEAK.with(Cell::get))
    }
}

#[global_allocator]
static ALLOCATOR: peak_alloc::Tracking = peak_alloc::Tracking;

proptest::proptest! {
    /// Mutants of both ladder-batch frames, CRC re-sealed: byte smashes
    /// anywhere in the payload, and the leading item count overwritten
    /// with hostile values. Every one decodes to a typed error or to a
    /// message within the protocol caps, and the decoder never reserves
    /// more than the caps or the bytes actually present can justify.
    #[test]
    fn mutated_ladder_batches_are_typed_and_bounded(
        base in 0u64..1000,
        cap in 1u32..1000,
        edges in collection::vec(0u32..50, 1..4),
        smashes in collection::vec((0usize..4096, 0u8..255), 0..4),
        count in 0usize..8,
    ) {
        let spq = Spq::new(
            Path::new(edges.iter().map(|&e| EdgeId(e)).collect()),
            TimeInterval::fixed(0, 100),
        );
        let window = TimeInterval::periodic(base as i64, 900);
        let counts = [0, 1, 64, 65, 1 << 16, 1 << 32, u64::MAX / 40, u64::MAX];
        for message in [ladder_batch(&spq, window, cap), ladder_batch_result(base, cap)] {
            let mut frame = encode_frame(&message);
            let payload = FRAME_HEADER + 1;
            for &(at, to) in &smashes {
                let at = payload + at % (frame.len() - payload);
                frame[at] = to;
            }
            if count < counts.len() {
                frame[payload..payload + 8].copy_from_slice(&counts[count].to_le_bytes());
            }
            reseal(&mut frame);
            // What honest input of this size can need: a vector of
            // `MAX_LADDER_BATCH` decoded items, or a sequence whose
            // elements each took at least one wire byte.
            let item = std::mem::size_of::<(Spq, Vec<TimeInterval>)>();
            let bound = (MAX_LADDER_BATCH * item).max(8 * frame.len());
            let (decoded, peak) = peak_alloc::of(|| decode_frame(&frame));
            proptest::prop_assert!(peak <= bound, "decode reserved {peak} B for {frame:?}");
            match decoded {
                Ok(Decode::Done { message: Message::LadderBatch { items }, .. }) => {
                    proptest::prop_assert!(items.len() <= MAX_LADDER_BATCH);
                    proptest::prop_assert!(
                        items.iter().all(|(_, levels)| levels.len() <= MAX_LADDER_LEVELS)
                    );
                }
                Ok(Decode::Done { message: Message::LadderBatchResult { results }, .. }) => {
                    proptest::prop_assert!(results.len() <= MAX_LADDER_BATCH);
                }
                Ok(other) => panic!("a re-sealed ladder frame decoded as {other:?}"),
                Err(FrameError::Body(_)) => {}
                Err(other) => panic!("a re-sealed frame failed outside its payload: {other:?}"),
            }
        }
    }
}
