//! The persistence contract: `QueryService::open(snapshot + WAL)` serves
//! byte-identically to the index state it persisted, corrupted files are
//! typed errors (never panics), and a crash between an append and the
//! next snapshot loses nothing the WAL fsynced.

mod common;

use common::{prefix_set, small_world, value_bits};
use std::path::PathBuf;
use std::sync::Arc;
use tthr::core::{SntConfig, SntIndex, Spq, TimeInterval, WalBatch};
use tthr::datagen::sample_query_trajectories;
use tthr::service::{QueryService, ServiceBackend, ServiceConfig, SNAPSHOT_FILE, WAL_FILE};
use tthr::store::wal::WalWriter;
use tthr::store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr::trajectory::TrajectorySet;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tthr-persistence-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mixed SPQ workload sampled from the history.
fn workload(set: &TrajectorySet) -> Vec<Spq> {
    let ids = sample_query_trajectories(set, 1.0, 8, 3);
    let mut queries = Vec::new();
    for (i, &id) in ids.iter().step_by(5).take(25).enumerate() {
        let tr = set.get(id);
        let q = match i % 3 {
            0 => Spq::new(
                tr.path(),
                TimeInterval::periodic_around(tr.start_time(), 1800),
            ),
            1 => Spq::new(tr.path(), TimeInterval::fixed(0, tr.start_time().max(1))),
            _ => Spq::new(tr.path(), TimeInterval::fixed(0, i64::MAX / 2)).with_user(tr.user()),
        };
        queries.push(q.with_beta(5 + (i as u32 % 3) * 5));
    }
    assert!(queries.len() >= 20, "sample must be non-trivial");
    queries
}

/// Bit patterns of the travel times, in index scan order: byte-identical
/// comparison, stricter than float equality.
fn bits<B: tthr::service::ServiceBackend>(
    service: &QueryService<B>,
    spq: &Spq,
) -> (Vec<u64>, bool) {
    let t = service.get_travel_times(spq);
    (value_bits(&t.values), t.fallback)
}

#[test]
fn open_serves_byte_identically_after_snapshot_and_wal_appends() {
    let dir = temp_dir("roundtrip");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let queries = workload(&set);

    // Life of the service: build over a third of the history, snapshot,
    // then two WAL-logged appends.
    let third = set.len() / 3;
    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, third), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    service.save_snapshot(&dir).unwrap();
    assert_eq!(
        service.append_batch(&prefix_set(&set, 2 * third)).unwrap(),
        third
    );
    assert_eq!(service.append_batch(&set).unwrap(), set.len() - 2 * third);

    // "Restart": the snapshot holds a third, the WAL the other two.
    let reopened =
        QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
    reopened.with_index(|index| {
        assert_eq!(index.num_trajectories(), set.len());
        assert_eq!(index.num_partitions(), 3);
    });
    for spq in &queries {
        assert_eq!(bits(&reopened, spq), bits(&service, spq), "{spq:?}");
    }

    // The same trajectories indexed in one shot agree as multisets (the
    // in-memory equivalence of partitioned vs FULL builds is pinned down
    // by tests/batch_append.rs; here it closes the loop to disk).
    let full = QueryService::new(
        SntIndex::build(&syn.network, &set, SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    for spq in &queries {
        assert_eq!(
            reopened.get_travel_times(spq).sorted(),
            full.get_travel_times(spq).sorted(),
            "{spq:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_load_is_cheaper_than_rebuild_in_partitions_touched() {
    // Sanity companion to the snapshot bench: loading must not rebuild
    // suffix arrays — the restored index is ready immediately and answers
    // the paper's example correctly after a pure deserialization.
    let dir = temp_dir("load");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let service = QueryService::new(
        SntIndex::build(&syn.network, &set, SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    let info = service.save_snapshot(&dir).unwrap();
    assert_eq!(info.trajectories, set.len());
    assert_eq!(info.path, dir.join(SNAPSHOT_FILE));
    assert_eq!(
        info.bytes,
        std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len()
    );
    let reopened = QueryService::open(&dir, network, ServiceConfig::default()).unwrap();
    reopened.with_index(|index| assert_eq!(index.num_trajectories(), set.len()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_snapshots_are_typed_errors_not_panics() {
    let dir = temp_dir("corruption");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, 40), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    service.save_snapshot(&dir).unwrap();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&snapshot_path).unwrap();

    let reopen = |bytes: &[u8]| {
        std::fs::write(&snapshot_path, bytes).unwrap();
        QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default())
    };

    // Truncated file — at the header, inside the section table, and
    // inside a payload.
    for len in [0usize, 7, 20, pristine.len() / 2, pristine.len() - 1] {
        match reopen(&pristine[..len]) {
            Err(StoreError::Truncated { .. }) => {}
            other => panic!("truncation to {len}: {:?}", other.map(|_| ())),
        }
    }

    // Bad magic.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        reopen(&bad_magic),
        Err(StoreError::BadMagic { kind: "snapshot" })
    ));

    // Wrong version.
    let mut bad_version = pristine.clone();
    bad_version[8] = 0x7F;
    assert!(matches!(
        reopen(&bad_version),
        Err(StoreError::UnsupportedVersion { found: 0x7F, .. })
    ));

    // CRC mismatch: flip one payload bit.
    let mut flipped = pristine.clone();
    let n = flipped.len();
    flipped[n - 1] ^= 0x01;
    assert!(matches!(
        reopen(&flipped),
        Err(StoreError::ChecksumMismatch { .. })
    ));

    // The pristine bytes still open fine (the failures above were the
    // mutations, not the harness).
    assert!(reopen(&pristine).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_replay_after_crash_recovers_batches_newer_than_the_snapshot() {
    let dir = temp_dir("crash");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let half = set.len() / 2;
    let queries = workload(&set);

    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, half), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    service.save_snapshot(&dir).unwrap();
    // The append is fsynced to the WAL; the snapshot is now stale.
    assert_eq!(service.append_batch(&set).unwrap(), set.len() - half);
    let answers: Vec<_> = queries.iter().map(|q| bits(&service, q)).collect();

    // Crash simulation: drop the service *and* tear the WAL tail the way
    // an interrupted append would.
    drop(service);
    let wal_path = dir.join(WAL_FILE);
    let mut wal_bytes = std::fs::read(&wal_path).unwrap();
    wal_bytes.extend_from_slice(&[0x13, 0x37, 0x00]);
    std::fs::write(&wal_path, &wal_bytes).unwrap();

    let reopened =
        QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
    reopened.with_index(|index| assert_eq!(index.num_trajectories(), set.len()));
    for (spq, want) in queries.iter().zip(&answers) {
        assert_eq!(&bits(&reopened, spq), want, "{spq:?}");
    }

    // The torn bytes were truncated: appending through the reopened
    // service and reopening once more replays cleanly.
    let mut grown = set.clone();
    let extra = grown.len();
    grown
        .push(
            set.get(tthr::trajectory::TrajId(0)).user(),
            set.get(tthr::trajectory::TrajId(0)).entries().to_vec(),
        )
        .unwrap();
    assert_eq!(reopened.append_batch(&grown).unwrap(), 1);
    let once_more = QueryService::open(&dir, network, ServiceConfig::default()).unwrap();
    once_more.with_index(|index| assert_eq!(index.num_trajectories(), extra + 1));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Sharded store format: per-shard snapshot sections + shard-tagged WAL
// records (`tthr_core::sharded`), opened via `QueryService::open_with`.
// ---------------------------------------------------------------------

use tthr::core::{ShardedSntIndex, ShardedWalBatch, SHARD_SECTION_BASE};
use tthr::service::ShardedQueryService;

const SHARDS: usize = 3;

fn sharded_service(
    network: &Arc<tthr::network::RoadNetwork>,
    set: &TrajectorySet,
) -> ShardedQueryService {
    QueryService::new(
        ShardedSntIndex::build(network, set, SntConfig::default(), SHARDS),
        Arc::clone(network),
        ServiceConfig::default(),
    )
}

/// Parses the snapshot container's section table: `(id, offset, len)`.
fn section_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let o = 16 + i * 24;
            let id = u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
            let off = u64::from_le_bytes(bytes[o + 4..o + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[o + 12..o + 20].try_into().unwrap()) as usize;
            (id, off, len)
        })
        .collect()
}

/// Frame offsets `(start, payload_len)` of every WAL record.
fn wal_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut pos = 12; // magic + version
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if bytes.len() - pos - 8 < len {
            break;
        }
        frames.push((pos, len));
        pos += 8 + len;
    }
    frames
}

#[test]
fn sharded_open_serves_byte_identically_after_snapshot_and_wal_appends() {
    let dir = temp_dir("sharded-roundtrip");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let queries = workload(&set);

    let third = set.len() / 3;
    let service = sharded_service(&network, &prefix_set(&set, third));
    service.save_snapshot(&dir).unwrap();
    assert_eq!(
        service.append_batch(&prefix_set(&set, 2 * third)).unwrap(),
        third
    );
    assert_eq!(service.append_batch(&set).unwrap(), set.len() - 2 * third);

    let reopened =
        ShardedQueryService::open_with(&dir, Arc::clone(&network), ServiceConfig::default())
            .unwrap();
    reopened.with_index(|index| {
        assert_eq!(index.num_trajectories(), set.len());
        assert_eq!(index.num_shards(), SHARDS);
    });
    for spq in &queries {
        assert_eq!(bits(&reopened, spq), bits(&service, spq), "{spq:?}");
    }

    // The monolithic service over the same history agrees byte for byte —
    // restart does not loosen the differential contract.
    let mono = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, third), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    let _ = mono.append_batch(&prefix_set(&set, 2 * third)).unwrap();
    let _ = mono.append_batch(&set).unwrap();
    for spq in &queries {
        assert_eq!(bits(&mono, spq), bits(&reopened, spq), "{spq:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_wal_truncated_mid_record_recovers_the_intact_prefix() {
    let dir = temp_dir("sharded-torn");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let half = set.len() / 2;
    let queries = workload(&set);

    let service = sharded_service(&network, &prefix_set(&set, half));
    service.save_snapshot(&dir).unwrap();
    assert_eq!(
        service.append_batch(&prefix_set(&set, half + 3)).unwrap(),
        3
    );
    // Answers of the generation the torn log must recover to.
    let after_first: Vec<_> = queries.iter().map(|q| bits(&service, q)).collect();
    assert_eq!(service.append_batch(&set).unwrap(), set.len() - half - 3);
    drop(service);

    // Tear the second record in half — mid-payload, the way a crash
    // during an fsync-ed write cannot happen but a disk can deliver.
    let wal_path = dir.join(WAL_FILE);
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let frames = wal_frames(&wal_bytes);
    assert_eq!(frames.len(), 2, "two appends, two records");
    let (start, len) = frames[1];
    std::fs::write(&wal_path, &wal_bytes[..start + 8 + len / 2]).unwrap();

    let reopened =
        ShardedQueryService::open_with(&dir, Arc::clone(&network), ServiceConfig::default())
            .unwrap();
    reopened.with_index(|index| assert_eq!(index.num_trajectories(), half + 3));
    for (spq, want) in queries.iter().zip(&after_first) {
        assert_eq!(&bits(&reopened, spq), want, "{spq:?}");
    }

    // The torn tail was truncated: appending and reopening again works.
    assert_eq!(reopened.append_batch(&set).unwrap(), set.len() - half - 3);
    let once_more =
        ShardedQueryService::open_with(&dir, Arc::clone(&network), ServiceConfig::default())
            .unwrap();
    once_more.with_index(|index| assert_eq!(index.num_trajectories(), set.len()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_snapshot_corruption_is_a_typed_error_per_section() {
    let dir = temp_dir("sharded-corruption");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let service = sharded_service(&network, &prefix_set(&set, 40));
    service.save_snapshot(&dir).unwrap();
    drop(service);
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&snapshot_path).unwrap();

    let reopen = |bytes: &[u8]| {
        std::fs::write(&snapshot_path, bytes).unwrap();
        ShardedQueryService::open_with(&dir, Arc::clone(&network), ServiceConfig::default())
    };

    // Flip one byte inside each shard's section payload: the container
    // CRC for exactly that section must fail.
    let table = section_table(&pristine);
    for s in 0..SHARDS as u32 {
        let &(_, off, len) = table
            .iter()
            .find(|&&(id, _, _)| id == SHARD_SECTION_BASE + s)
            .expect("shard section present");
        assert!(len > 0);
        let mut corrupt = pristine.clone();
        corrupt[off + len / 2] ^= 0x40;
        match reopen(&corrupt) {
            Err(StoreError::ChecksumMismatch { context }) => {
                assert!(
                    context.contains(&(SHARD_SECTION_BASE + s).to_string()),
                    "wrong section blamed: {context}"
                );
            }
            other => panic!("shard {s} corruption: {:?}", other.err()),
        }
    }

    // A monolithic service directory refuses to open as sharded (and vice
    // versa) with a typed missing-section error, not a misparse.
    std::fs::write(&snapshot_path, &pristine).unwrap();
    let mono_dir = temp_dir("sharded-corruption-mono");
    let mono = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, 40), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    mono.save_snapshot(&mono_dir).unwrap();
    assert!(matches!(
        ShardedQueryService::open_with(&mono_dir, Arc::clone(&network), ServiceConfig::default()),
        Err(StoreError::MissingSection(_))
    ));
    assert!(matches!(
        QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()),
        Err(StoreError::MissingSection(_))
    ));

    // Pristine bytes still open (the harness, not the format, failed
    // above).
    assert!(reopen(&pristine).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&mono_dir).unwrap();
}

#[test]
fn sharded_wal_records_skipping_ahead_or_misrouted_are_typed_errors() {
    let dir = temp_dir("sharded-gap");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let service = sharded_service(&network, &prefix_set(&set, 30));
    service.save_snapshot(&dir).unwrap();
    // The record the service itself would log for the next two
    // trajectories, decoded so its stamp and tag can be forged.
    let delta: Vec<_> = set.iter().skip(30).take(2).cloned().collect();
    let logged = service.with_index(|index| index.encode_wal_record(&delta, 30));
    let base_plan = ShardedWalBatch::restore(&mut ByteReader::new(&logged)).unwrap();
    assert_eq!(
        (base_plan.batch.base, base_plan.batch.trajectories.len()),
        (30, 2)
    );
    drop(service);

    let write_wal = |record: &ShardedWalBatch| {
        let mut w = ByteWriter::new();
        record.persist(&mut w);
        let mut wal = WalWriter::create(&dir.join(WAL_FILE)).unwrap();
        wal.append(&w.into_bytes()).unwrap();
    };

    // A record whose base stamp skips ahead of the snapshot is a gap.
    let mut skipping = base_plan.clone();
    skipping.batch.base = 1000;
    write_wal(&skipping);
    assert!(matches!(
        ShardedQueryService::open_with(&dir, Arc::clone(&network), ServiceConfig::default()),
        Err(StoreError::WalGap {
            expected: 30,
            found: 1000
        })
    ));

    // A record whose shard tag disagrees with the routing table is
    // corrupt: the log was written against a different partitioning.
    let mut misrouted = base_plan.clone();
    misrouted.touched = vec![u16::MAX - 1];
    write_wal(&misrouted);
    assert!(matches!(
        ShardedQueryService::open_with(&dir, Arc::clone(&network), ServiceConfig::default()),
        Err(StoreError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Concurrent appends: each `append_new` logs one record with one fsync,
// every acked append is durable, and a crash between any two records
// recovers exactly the stamped prefix.
// ---------------------------------------------------------------------

use tthr::trajectory::{TrajEntry, TrajId, UserId};

const FLOOD_THREADS: usize = 16;

/// One single-trajectory payload per flood thread, drawn from the half of
/// the history the snapshot does not cover.
fn flood_payloads(set: &TrajectorySet, from: usize) -> Vec<(UserId, Vec<TrajEntry>)> {
    (from..from + FLOOD_THREADS)
        .map(|i| {
            let t = set.get(TrajId(u32::try_from(i).unwrap()));
            (t.user(), t.entries().to_vec())
        })
        .collect()
}

/// Floods the service with one `append_new` per payload from
/// [`FLOOD_THREADS`] threads while the index read lock is held: every
/// appender queues on the write lock, then each logs, fsyncs and applies
/// its own record in turn — and every ack means "fsynced".
fn append_flood(service: &QueryService<SntIndex>, payloads: &[(UserId, Vec<TrajEntry>)]) {
    std::thread::scope(|s| {
        let handles = service.with_index(|_held| {
            let handles: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    s.spawn(move || service.append_new(None, std::slice::from_ref(payload)))
                })
                .collect();
            // Give every thread time to queue on the lock before it
            // releases.
            std::thread::sleep(std::time::Duration::from_millis(400));
            handles
        });
        for handle in handles {
            assert_eq!(handle.join().unwrap().unwrap(), 1);
        }
    });
}

/// Reads a bare counter sample (`name value`) out of the Prometheus
/// exposition.
fn counter_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
}

#[test]
fn concurrent_append_flood_fsyncs_once_per_acknowledged_append() {
    let dir = temp_dir("append-flood");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let half = set.len() / 2;
    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, half), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    service.save_snapshot(&dir).unwrap();

    append_flood(&service, &flood_payloads(&set, half));

    // One WAL record and one fsync per acknowledged append, however many
    // appenders queued at once.
    let text = service.render_metrics();
    assert_eq!(
        counter_value(&text, "tthr_wal_appends_total"),
        FLOOD_THREADS as u64
    );
    assert_eq!(
        counter_value(&text, "tthr_wal_fsyncs_total"),
        FLOOD_THREADS as u64
    );

    // Every acked append is durable, and replaying the log reproduces the
    // live index byte for byte.
    let reopened =
        QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
    reopened.with_index(|index| assert_eq!(index.num_trajectories(), half + FLOOD_THREADS));
    for spq in &workload(&set) {
        assert_eq!(bits(&reopened, spq), bits(&service, spq), "{spq:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_append_flood_wal_recovers_every_record_prefix() {
    let dir = temp_dir("append-crash");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let half = set.len() / 2;
    let queries = workload(&set);
    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, half), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    service.save_snapshot(&dir).unwrap();

    append_flood(&service, &flood_payloads(&set, half));
    let live: Vec<_> = queries.iter().map(|q| bits(&service, q)).collect();
    drop(service);

    // However the appenders interleaved, the log holds one stamped record
    // per acked append, in apply order.
    let wal_path = dir.join(WAL_FILE);
    let pristine = std::fs::read(&wal_path).unwrap();
    let frames = wal_frames(&pristine);
    assert_eq!(frames.len(), FLOOD_THREADS, "one record per acked append");

    // Crash battery: a crash between any two records — and, torn, in the
    // middle of the next write — recovers exactly the stamped prefix.
    // An append is acked only after its fsync, so a shorter log never
    // loses an acknowledged append.
    for k in 0..=frames.len() {
        let end = match k.checked_sub(1) {
            None => 12, // file header only
            Some(last) => {
                let (start, len) = frames[last];
                start + 8 + len
            }
        };
        let mut cut = pristine[..end].to_vec();
        std::fs::write(&wal_path, &cut).unwrap();
        let reopened =
            QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
        reopened.with_index(|index| {
            assert_eq!(index.num_trajectories(), half + k, "prefix of {k} records");
        });
        drop(reopened);

        if k < frames.len() {
            let (start, len) = frames[k];
            cut.extend_from_slice(&pristine[start..start + 8 + len / 2]);
            std::fs::write(&wal_path, &cut).unwrap();
            let torn =
                QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
            torn.with_index(|index| {
                assert_eq!(index.num_trajectories(), half + k, "torn record {k}");
            });
        }
    }

    // The full log replays to the exact live answers, and replay is
    // idempotent: a second open over the same bytes agrees with itself.
    std::fs::write(&wal_path, &pristine).unwrap();
    let replayed =
        QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
    for (spq, want) in queries.iter().zip(&live) {
        assert_eq!(&bits(&replayed, spq), want, "{spq:?}");
    }
    drop(replayed);
    let again = QueryService::open(&dir, Arc::clone(&network), ServiceConfig::default()).unwrap();
    again.with_index(|index| assert_eq!(index.num_trajectories(), half + FLOOD_THREADS));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Compaction rotation crash battery: the rotate-snapshot-then-truncate-
// WAL sequence (`compact_now` with durable storage attached) can die at
// any point; `open()` must recover to exactly the pre- or the post-
// compaction state — never a hybrid that re-applies retention-dropped
// data out of a stale log.
// ---------------------------------------------------------------------

use std::time::Duration;
use tthr::service::IngestConfig;

/// Copies a service directory file-by-file (snapshot + WAL + strays).
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn compaction_rotation_crash_battery_recovers_pre_or_post_never_hybrid() {
    let dir = temp_dir("rotation-crash");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let queries = workload(&set);
    let half = set.len() / 2;

    // The original history's time span, for crafting expired-vs-live data.
    let t_max = set
        .iter()
        .flat_map(|t| t.entries().iter().map(|e| e.enter_time))
        .max()
        .unwrap();
    let t_min = set.iter().map(|t| t.start_time()).min().unwrap();
    let span = (t_max - t_min).max(1);
    let ingest = IngestConfig {
        hot_tail: true,
        retention: Some(Duration::from_secs(span as u64)),
        ..IngestConfig::default()
    };

    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, half), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig {
            ingest: ingest.clone(),
            ..ServiceConfig::default()
        },
    );
    service.save_snapshot(&dir).unwrap();
    // Two WAL-logged hot-tail appends: the rest of the history, then a
    // far-future batch that pushes the retention horizon past every
    // original partition — compaction will drop all of them, so the pre-
    // and post-compaction states answer differently (a hybrid is
    // detectable, not silently equal).
    assert_eq!(service.append_batch(&set).unwrap(), set.len() - half);
    let mut grown = set.clone();
    let future = 10 * span;
    for i in 0..4u32 {
        let tr = set.get(TrajId(i));
        let entries: Vec<TrajEntry> = tr
            .entries()
            .iter()
            .map(|e| TrajEntry::new(e.edge, e.enter_time + future, e.travel_time))
            .collect();
        grown.push(tr.user(), entries).unwrap();
    }
    assert_eq!(service.append_batch(&grown).unwrap(), 4);
    assert!(
        service.hot_stats().entries > 0,
        "appends must sit in the hot tail"
    );

    // Freeze the PRE-compaction directory, rotate, freeze the POST one.
    let pre_dir = temp_dir("rotation-crash-pre");
    copy_dir(&dir, &pre_dir);
    let outcome = service.compact_now().unwrap();
    assert!(outcome.sealed_entries > 0);
    assert!(
        outcome.dropped_partitions > 0,
        "retention must drop the expired partitions: {outcome:?}"
    );
    let post_dir = temp_dir("rotation-crash-post");
    copy_dir(&dir, &post_dir);

    let answers_of = |d: &std::path::Path| -> Vec<(Vec<u64>, bool)> {
        let svc = QueryService::open(d, Arc::clone(&network), ServiceConfig::default()).unwrap();
        queries.iter().map(|q| bits(&svc, q)).collect()
    };
    let pre_answers = answers_of(&pre_dir);
    let post_answers = answers_of(&post_dir);
    assert_ne!(
        pre_answers, post_answers,
        "retention must change some answer, or a hybrid would be undetectable"
    );

    // The battery: reconstruct the directory as a crash at each stage of
    // the rotation would leave it, and require `open()` to land exactly
    // on one side.
    let post_snapshot = std::fs::read(post_dir.join(SNAPSHOT_FILE)).unwrap();
    let pre_wal = std::fs::read(pre_dir.join(WAL_FILE)).unwrap();
    let tmp_name = format!("{SNAPSHOT_FILE}.tmp");
    let crash = temp_dir("rotation-crash-stage");

    // Stage 1: died while writing the temp snapshot (torn tmp file). The
    // rename never happened; the stray tmp must be ignored.
    copy_dir(&pre_dir, &crash);
    std::fs::write(
        crash.join(&tmp_name),
        &post_snapshot[..post_snapshot.len() / 2],
    )
    .unwrap();
    assert_eq!(answers_of(&crash), pre_answers, "torn tmp snapshot");

    // Stage 2: died after the tmp snapshot was complete, before the
    // rename. Still the pre state — a complete-but-unrenamed snapshot is
    // not yet the truth.
    copy_dir(&pre_dir, &crash);
    std::fs::write(crash.join(&tmp_name), &post_snapshot).unwrap();
    assert_eq!(answers_of(&crash), pre_answers, "unrenamed tmp snapshot");

    // Stage 3: died after the rename, before the WAL reset — the rotated
    // snapshot next to the full stale log. Every WAL record is already
    // contained in the snapshot; replay must skip them all by stamp
    // (post state) and MUST NOT re-apply the retention-dropped batches
    // (the hybrid this battery exists to rule out).
    copy_dir(&pre_dir, &crash);
    std::fs::write(crash.join(SNAPSHOT_FILE), &post_snapshot).unwrap();
    assert_eq!(
        answers_of(&crash),
        post_answers,
        "rotated snapshot + stale WAL"
    );

    // Stage 4: died mid WAL reset — the log truncated to nothing, or to
    // a torn header. Recovery rewrites it fresh; still the post state.
    for torn in [0usize, 6] {
        copy_dir(&post_dir, &crash);
        std::fs::write(crash.join(WAL_FILE), &pre_wal[..torn]).unwrap();
        assert_eq!(
            answers_of(&crash),
            post_answers,
            "torn WAL header ({torn} bytes)"
        );
    }

    // Stage 5: the full sequence landed.
    copy_dir(&post_dir, &crash);
    assert_eq!(answers_of(&crash), post_answers, "complete rotation");

    // Liveness after recovery: the reopened store ingests, rotates, and
    // reopens again — the crash left no landmine behind.
    let lively = QueryService::open(
        &crash,
        Arc::clone(&network),
        ServiceConfig {
            ingest,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let tr = set.get(TrajId(9));
    let entries: Vec<TrajEntry> = tr
        .entries()
        .iter()
        .map(|e| TrajEntry::new(e.edge, e.enter_time + future, e.travel_time))
        .collect();
    grown.push(tr.user(), entries).unwrap();
    assert_eq!(lively.append_batch(&grown).unwrap(), 1);
    lively.compact_now().unwrap();
    drop(lively);
    let again = QueryService::open(&crash, Arc::clone(&network), ServiceConfig::default()).unwrap();
    again.with_index(|i| assert_eq!(i.num_trajectories(), set.len() + 5));

    for d in [&dir, &pre_dir, &post_dir, &crash] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn wal_records_skipping_ahead_are_a_gap_error() {
    let dir = temp_dir("gap");
    let (syn, set) = small_world();
    let network = Arc::new(syn.network.clone());
    let service = QueryService::new(
        SntIndex::build(&syn.network, &prefix_set(&set, 30), SntConfig::default()),
        Arc::clone(&network),
        ServiceConfig::default(),
    );
    service.save_snapshot(&dir).unwrap();
    drop(service);

    // Forge a WAL whose only record claims a base far past the snapshot
    // (as if an earlier log file had been deleted).
    let batch = WalBatch {
        base: 1000,
        trajectories: set
            .iter()
            .skip(set.len() - 2)
            .map(|t| (t.user(), t.entries().to_vec()))
            .collect(),
    };
    let mut w = ByteWriter::new();
    batch.persist(&mut w);
    let mut wal = WalWriter::create(&dir.join(WAL_FILE)).unwrap();
    wal.append(&w.into_bytes()).unwrap();
    drop(wal);

    let result = QueryService::open(&dir, network, ServiceConfig::default());
    assert!(matches!(
        result,
        Err(StoreError::WalGap {
            expected: 30,
            found: 1000
        })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// One write path: `append_batch(&set)` and `append_new(Some(n), payload)`
// are two spellings of the same `ingest`, on every backend, sealed or
// absorbed — same WAL record bytes, same snapshot bytes, same answers.
// ---------------------------------------------------------------------

use common::differential::Run;
use common::tier::{service_config, Build, InProcess, Tier};
use tthr::core::QueryEngineConfig;

/// The WAL bytes three appends through one entry point log, and the
/// snapshot bytes the compaction after them rotates to, on one
/// in-process tier — whose answers the oracle checks before and after
/// the compaction.
type StoreBytes = ((Vec<u8>, Vec<u8>), (Vec<u8>, Vec<u8>));

fn one_path<B: Build>(tier: &'static str, shards: usize, hot: bool, grown_set: bool) -> StoreBytes {
    let config = service_config(&QueryEngineConfig::default(), hot);
    let dir_name = format!("one-path-{tier}-{hot}-{grown_set}");
    let mut r = Run::over_service::<B>("one-path", tier, shards, config, |svc, config| {
        let mut tier = InProcess::new(tier, svc, config, &dir_name);
        tier.via_grown_set = grown_set;
        tier
    });
    r.tier.snapshot(); // attaches the WAL
    for n in [5, 1, 9] {
        r.append_next(n);
    }
    let logged = r.tier.store_bytes(WAL_FILE);
    let queries: Vec<Spq> = (0..24).map(|_| r.spq()).collect();
    r.check_all(&queries, 6);
    r.tier.compact(); // absorbing: seals, rotates, truncates the log
    r.check_all(&queries, 6);
    (logged, r.tier.store_bytes(SNAPSHOT_FILE))
}

#[test]
fn append_batch_and_append_new_write_identical_records_and_snapshots() {
    for hot in [false, true] {
        // The monolith and K ∈ {1, 2, 7}, sealed or absorbing, through
        // each entry point.
        let run = |grown_set: bool| {
            [
                ("mono", one_path::<SntIndex>("mono", 0, hot, grown_set)),
                ("k1", one_path::<ShardedSntIndex>("k1", 1, hot, grown_set)),
                ("k2", one_path::<ShardedSntIndex>("k2", 2, hot, grown_set)),
                ("k7", one_path::<ShardedSntIndex>("k7", 7, hot, grown_set)),
            ]
        };
        for ((tier, (wal_set, snap_set)), (_, (wal_new, snap_new))) in
            run(true).iter().zip(run(false))
        {
            assert!(wal_frames(&wal_set.0).len() == 3, "three records logged");
            assert!(
                wal_set.0 == wal_new.0,
                "hot_tail={hot} {tier}: WAL bytes differ by entry point"
            );
            assert!(
                *snap_set == snap_new,
                "hot_tail={hot} {tier}: snapshot bytes differ by entry point"
            );
        }
    }
}

// ---------------------------------------------------------------------
// One shard type: the invariants of a shard part (index + member list)
// are validated by one constructor, so the same corrupt part is the same
// typed error whether it arrives in a sharded service snapshot or in a
// shard node's.
// ---------------------------------------------------------------------

use tthr::core::node::{plan_node_records, SECTION_NODE_INDEX, SECTION_NODE_META};
use tthr::core::{ShardNodeState, ShardRouter, SECTION_ROUTING, SECTION_SHARDED_META};
use tthr::store::snapshot::{SectionId, SnapshotArchive, SnapshotBuilder};

#[test]
fn corrupt_shard_parts_are_the_same_typed_error_in_both_containers() {
    let (syn, set) = small_world();
    let set = prefix_set(&set, 40);
    let sharded = ShardedSntIndex::build(&syn.network, &set, SntConfig::default(), 1);
    let members = sharded.shard_members(0);
    let num_global = members.len() as u32;
    let index = sharded.with_shard(0, |i| i.to_snapshot_bytes());
    let one_fewer = SntIndex::build(&syn.network, &prefix_set(&set, 39), SntConfig::default());
    let router = sharded.router().clone();
    let mut wider = ByteWriter::new();
    wider.put_u32(1);
    wider.put_seq(&vec![0u16; router.num_edges() + 1]);
    let wider = ShardRouter::restore(&mut ByteReader::new(&wider.into_bytes())).unwrap();

    // (what the error must say, the member list, the shard index, the
    // routing table)
    let mut swapped = members.clone();
    swapped.swap(3, 4);
    let mut beyond = members.clone();
    *beyond.last_mut().unwrap() = num_global;
    let fewer = one_fewer.to_snapshot_bytes();
    let table: [(&str, &[u32], Vec<u8>, &ShardRouter); 4] = [
        ("not strictly ascending", &swapped, index.clone(), &router),
        (
            "out of range for 40 trajectories",
            &beyond,
            index.clone(),
            &router,
        ),
        (
            "indexes 39 trajectories but lists 40",
            &members,
            fewer,
            &router,
        ),
        ("edges, routing table", &members, index.clone(), &wider),
    ];

    let raw = |archive: &SnapshotArchive<'_>, id| {
        let mut r = archive.section(id).unwrap();
        r.get_bytes(r.remaining()).unwrap().to_vec()
    };
    let pristine_sharded = sharded.to_snapshot_bytes();
    let pristine_node = ShardNodeState::export_from(&sharded, 0).to_snapshot_bytes();
    assert!(ShardedSntIndex::from_snapshot_bytes(&pristine_sharded).is_ok());
    assert!(ShardNodeState::from_snapshot_bytes(&pristine_node).is_ok());

    for (what, members, index, router) in table {
        // The sharded container: meta (edge count patched to the routing
        // table's, so only the shard part disagrees), routing, shard 0.
        let archive = SnapshotArchive::from_bytes(&pristine_sharded).unwrap();
        let mut meta = raw(&archive, SECTION_SHARDED_META);
        let at = meta.len() - 8;
        meta[at..].copy_from_slice(&(router.num_edges() as u64).to_le_bytes());
        let mut routing = ByteWriter::new();
        router.persist(&mut routing);
        let mut shard = ByteWriter::new();
        shard.put_seq(members);
        shard.put_len(index.len());
        shard.put_bytes(&index);
        let mut container = SnapshotBuilder::new();
        container.add_section(SECTION_SHARDED_META, meta);
        container.add_section(SECTION_ROUTING, routing.into_bytes());
        container.add_section(SectionId(SHARD_SECTION_BASE), shard.into_bytes());
        let err = ShardedSntIndex::from_snapshot_bytes(&container.into_bytes())
            .err()
            .unwrap_or_else(|| panic!("sharded container accepted: {what}"));
        assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err:?}");
        assert!(err.to_string().contains(what), "{what}: {err}");

        // The node container: meta (shard, counters, routing, members),
        // then the index.
        let archive = SnapshotArchive::from_bytes(&pristine_node).unwrap();
        let mut head = archive.section(SECTION_NODE_META).unwrap();
        let mut meta = ByteWriter::new();
        meta.put_bytes(head.get_bytes(2 + 8 + 8 + 8).unwrap());
        router.persist(&mut meta);
        meta.put_seq(members);
        let mut container = SnapshotBuilder::new();
        container.add_section(SECTION_NODE_META, meta.into_bytes());
        container.add_section(SECTION_NODE_INDEX, index);
        let err = ShardNodeState::from_snapshot_bytes(&container.into_bytes())
            .err()
            .unwrap_or_else(|| panic!("node container accepted: {what}"));
        assert!(matches!(err, StoreError::Corrupt { .. }), "{what}: {err:?}");
        assert!(err.to_string().contains(what), "{what}: {err}");
    }
}

// ---------------------------------------------------------------------
// One rotator: a shard node's store rotates through the same
// `tthr_store::rotate` as the service directory above, so the same
// battery applies — a process killed at any point of a rotation reopens
// to the same state, byte for byte.
// ---------------------------------------------------------------------

use tthr::server::node::{NodeStore, NODE_SNAPSHOT_FILE, NODE_WAL_FILE};

#[test]
fn node_store_rotation_crash_battery_reopens_to_the_same_state() {
    let (syn, set) = small_world();
    let sharded =
        ShardedSntIndex::build(&syn.network, &prefix_set(&set, 60), SntConfig::default(), 2);
    let (dir, pre, crash) = (
        temp_dir("node-rot"),
        temp_dir("node-rot-pre"),
        temp_dir("node-rot-crash"),
    );
    let mut store = NodeStore::init(&dir, ShardNodeState::export_from(&sharded, 0)).unwrap();
    store.set_hot_tail(true);
    // Two logged, absorbed batches — what the rotation seals and covers.
    for from in [60, 70] {
        let batch = flood_payloads(&set, from);
        let state = store.state();
        let records = plan_node_records(
            state.router(),
            state.num_global(),
            state.span_min(),
            state.span_max(),
            &batch,
        )
        .unwrap();
        store.append(&records[0]).unwrap();
    }
    assert!(
        store.hot_stats().entries > 0,
        "appends must sit in the hot tail"
    );
    copy_dir(&dir, &pre);
    store.snapshot().unwrap();
    let want = store.state().to_snapshot_bytes();
    let reopened = |d: &std::path::Path| NodeStore::open(d).unwrap().state().to_snapshot_bytes();
    assert!(reopened(&pre) == want, "pre-state: old snapshot + full log");
    assert!(
        reopened(&dir) == want,
        "post-state: new snapshot + empty log"
    );

    let post_snapshot = std::fs::read(dir.join(NODE_SNAPSHOT_FILE)).unwrap();
    let tmp = format!("{NODE_SNAPSHOT_FILE}.tmp");
    // Killed mid tmp write, and after it: the stray file is ignored.
    for cut in [post_snapshot.len() / 2, post_snapshot.len()] {
        copy_dir(&pre, &crash);
        std::fs::write(crash.join(&tmp), &post_snapshot[..cut]).unwrap();
        assert!(reopened(&crash) == want, "tmp of {cut} bytes");
    }
    // Killed after the rename: every logged record is in the new snapshot
    // and skips by stamp.
    copy_dir(&pre, &crash);
    std::fs::write(crash.join(NODE_SNAPSHOT_FILE), &post_snapshot).unwrap();
    assert!(reopened(&crash) == want, "rotated snapshot + stale log");
    // Killed mid WAL reset: a torn header reads as an empty log.
    std::fs::write(crash.join(NODE_WAL_FILE), b"TTHRW").unwrap();
    assert!(reopened(&crash) == want, "torn log header");
    for d in [&dir, &pre, &crash] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
