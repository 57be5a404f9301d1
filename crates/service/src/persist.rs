//! Durable storage wiring: snapshot files and the append WAL.
//!
//! A persistent service directory holds two files in the `tthr-store`
//! formats (see that crate's docs for the byte layouts):
//!
//! * [`SNAPSHOT_FILE`] — the whole SNT-index as a sectioned, CRC-guarded
//!   container, written atomically (temp file + rename).
//! * [`WAL_FILE`] — one record per `append_batch` call since the
//!   snapshot, each stamped with the trajectory count it applied to, so
//!   replay is idempotent across the snapshot/WAL overlap a crash can
//!   leave behind.
//!
//! [`QueryService::save_snapshot`] attaches the directory to the service;
//! from then on every [`QueryService::append_batch`] is logged
//! write-ahead. [`QueryService::open`] is the restart path: load the
//! snapshot, replay the WAL, resume logging.

use crate::{QueryService, ServiceConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tthr_core::persist::prepare_batch;
use tthr_core::{SntIndex, WalBatch};
use tthr_network::RoadNetwork;
use tthr_store::wal::WalWriter;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr_trajectory::Trajectory;

/// File name of the snapshot container inside a service directory.
pub const SNAPSHOT_FILE: &str = "snapshot.tthr";

/// File name of the write-ahead log inside a service directory.
pub const WAL_FILE: &str = "wal.tthr";

/// Durable-storage state attached to a running service.
pub(crate) struct Persistence {
    /// The service directory (snapshot + WAL live here).
    pub(crate) dir: PathBuf,
    /// The open, append-positioned WAL.
    pub(crate) wal: WalWriter,
}

/// What a [`QueryService::save_snapshot`] call wrote.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// Path of the snapshot file.
    pub path: PathBuf,
    /// Size of the snapshot in bytes.
    pub bytes: u64,
    /// Trajectories captured in the snapshot.
    pub trajectories: usize,
    /// Temporal partitions captured in the snapshot.
    pub partitions: usize,
}

impl QueryService {
    /// Writes the current index state as a snapshot into `dir` (created
    /// if missing), resets the WAL, and attaches durable storage so every
    /// later [`QueryService::append_batch`] is logged write-ahead.
    ///
    /// The snapshot is written atomically — a temp file is fsynced and
    /// renamed over any previous snapshot — so a crash mid-save leaves
    /// the old state intact. Concurrent queries keep running; the call
    /// holds the index read lock, so it only excludes writers.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tthr_core::{SntConfig, SntIndex, Spq, TimeInterval};
    /// use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E};
    /// use tthr_network::Path;
    /// use tthr_service::{QueryService, ServiceConfig};
    /// use tthr_trajectory::examples::example_trajectories;
    ///
    /// let dir = std::env::temp_dir().join(format!("tthr-snap-doc-{}", std::process::id()));
    /// let network = Arc::new(example_network());
    /// let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
    /// let service = QueryService::new(index, Arc::clone(&network), ServiceConfig::default());
    /// let info = service.save_snapshot(&dir)?;
    /// assert_eq!(info.trajectories, 4);
    ///
    /// // A "restart": open the snapshot instead of rebuilding the index.
    /// let reopened = QueryService::open(&dir, network, ServiceConfig::default())?;
    /// let spq = Spq::new(Path::new(vec![EDGE_A, EDGE_B, EDGE_E]), TimeInterval::fixed(0, 15));
    /// assert_eq!(
    ///     reopened.get_travel_times(&spq).sorted(),
    ///     service.get_travel_times(&spq).sorted(),
    /// );
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), tthr_store::StoreError>(())
    /// ```
    pub fn save_snapshot(&self, dir: impl AsRef<Path>) -> Result<SnapshotInfo, StoreError> {
        save_snapshot_on(&self.inner, dir.as_ref())
    }

    /// Opens a service from a directory written by
    /// [`QueryService::save_snapshot`]: loads the snapshot, replays every
    /// WAL batch the snapshot predates, truncates any torn WAL tail, and
    /// resumes write-ahead logging in the same directory.
    ///
    /// Replay is stamp-checked: records already contained in the snapshot
    /// are skipped, and a record that *skips ahead* of the index state
    /// (a deleted or reordered log) is a [`StoreError::WalGap`]. The
    /// resulting service answers queries byte-identically to one built
    /// from the full trajectory history in memory.
    pub fn open(
        dir: impl AsRef<Path>,
        network: Arc<RoadNetwork>,
        config: ServiceConfig,
    ) -> Result<QueryService, StoreError> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(SNAPSHOT_FILE))?;
        let mut index = SntIndex::from_snapshot_bytes(&bytes)?;
        let (wal, recovery) = WalWriter::open(&dir.join(WAL_FILE))?;
        for record in &recovery.records {
            replay_wal_record(&mut index, record)?;
        }
        let service = QueryService::new(index, network, config);
        *service.inner.persist.lock().expect("persist lock") = Some(Persistence {
            dir: dir.to_path_buf(),
            wal,
        });
        Ok(service)
    }
}

/// The storage directory attached to the service internals, if any.
pub(crate) fn store_dir(inner: &crate::Inner) -> Option<PathBuf> {
    let persist = inner.persist.lock().expect("persist lock");
    persist.as_ref().map(|p| p.dir.clone())
}

/// The WAL record logging `batch` ingested at trajectory count `from`:
/// one [`WalBatch`].
pub(crate) fn encode_wal_record(batch: &[Trajectory], from: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    WalBatch::encode(from as u64, batch, &mut w);
    w.into_bytes()
}

/// Replays one WAL record: skips a record the snapshot already covers
/// (base stamp below the trajectory count), seals one that lines up
/// exactly, and reports a [`StoreError::WalGap`] for one that skips
/// ahead.
fn replay_wal_record(index: &mut SntIndex, record: &[u8]) -> Result<(), StoreError> {
    let mut r = ByteReader::new(record);
    let batch = WalBatch::restore(&mut r)?;
    r.expect_exhausted("wal record")?;
    let have = index.num_trajectories();
    match batch.base.cmp(&(have as u64)) {
        std::cmp::Ordering::Less => {}
        std::cmp::Ordering::Greater => {
            return Err(StoreError::WalGap {
                expected: have as u64,
                found: batch.base,
            })
        }
        std::cmp::Ordering::Equal => {
            let due = prepare_batch(have as u32, index.num_edges(), &batch.trajectories)?;
            index.ingest(due, true);
        }
    }
    Ok(())
}

/// [`QueryService::save_snapshot`]'s implementation, callable from
/// anything holding the service internals — the public method and the
/// background compactor's snapshot rotation both land here.
pub(crate) fn save_snapshot_on(
    inner: &crate::Inner,
    dir: &Path,
) -> Result<SnapshotInfo, StoreError> {
    // Lock order: index, then the persist mutex (same as `append_batch`).
    // The read lock keeps writers out for the whole rotation.
    let index = inner.index.read().expect("index lock");
    let mut persist = inner.persist.lock().expect("persist lock");
    let started = std::time::Instant::now();
    // The snapshot streams straight into the temp file; once it is
    // renamed it covers everything, so the rotation starts a fresh log.
    // (Crash points: see `tthr_store::rotate`.)
    let (bytes, wal) = tthr_store::rotate(dir, SNAPSHOT_FILE, WAL_FILE, |out| {
        index.write_snapshot_to(out)
    })?;
    let metrics = &inner.metrics;
    metrics
        .snapshot_duration_ns
        .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    metrics
        .snapshot_bytes
        .set(i64::try_from(bytes).unwrap_or(i64::MAX));
    metrics.snapshots.inc();
    *persist = Some(Persistence {
        dir: dir.to_path_buf(),
        wal,
    });
    Ok(SnapshotInfo {
        path: dir.join(SNAPSHOT_FILE),
        bytes,
        trajectories: index.num_trajectories(),
        partitions: index.num_partitions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_core::{SntConfig, SntIndex, Spq, TimeInterval};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E};
    use tthr_network::Path as NetPath;
    use tthr_trajectory::examples::example_trajectories;
    use tthr_trajectory::{TrajEntry, UserId};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tthr-service-persist-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service() -> (QueryService, Arc<RoadNetwork>) {
        let network = Arc::new(example_network());
        let index = SntIndex::build(&network, &example_trajectories(), SntConfig::default());
        (
            QueryService::new(
                index,
                Arc::clone(&network),
                ServiceConfig {
                    num_threads: 2,
                    ..ServiceConfig::default()
                },
            ),
            network,
        )
    }

    fn abe() -> Spq {
        Spq::new(
            NetPath::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 1000),
        )
    }

    #[test]
    fn snapshot_open_round_trip() {
        let dir = temp_dir("roundtrip");
        let (service, network) = service();
        let info = service.save_snapshot(&dir).unwrap();
        assert_eq!(info.trajectories, 4);
        assert!(info.bytes > 0);
        assert_eq!(store_dir(&service.inner).as_deref(), Some(dir.as_path()));

        let reopened = QueryService::open(&dir, network, ServiceConfig::default()).unwrap();
        assert_eq!(
            reopened.get_travel_times(&abe()).sorted(),
            service.get_travel_times(&abe()).sorted()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_after_snapshot_are_replayed_from_the_wal() {
        let dir = temp_dir("wal-replay");
        let (service, network) = service();
        service.save_snapshot(&dir).unwrap();

        let mut grown = example_trajectories();
        grown
            .push(
                UserId(9),
                vec![
                    TrajEntry::new(EDGE_A, 30, 3.0),
                    TrajEntry::new(EDGE_B, 33, 3.0),
                    TrajEntry::new(EDGE_E, 36, 4.0),
                ],
            )
            .unwrap();
        assert_eq!(service.append_batch(&grown).unwrap(), 1);

        // "Crash": the snapshot predates the append; only the WAL has it.
        let reopened = QueryService::open(&dir, network, ServiceConfig::default()).unwrap();
        reopened.with_index(|i| assert_eq!(i.num_trajectories(), 5));
        assert_eq!(
            reopened.get_travel_times(&abe()).sorted(),
            service.get_travel_times(&abe()).sorted()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_without_snapshot_is_io_error() {
        let dir = temp_dir("missing");
        let result =
            QueryService::open(&dir, Arc::new(example_network()), ServiceConfig::default());
        assert!(matches!(result, Err(StoreError::Io(_))));
    }
}
