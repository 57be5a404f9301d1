//! The backend abstraction [`QueryService`] is generic over.
//!
//! [`QueryService`]: crate::QueryService
//!
//! A backend is an index the service can query (via
//! [`IndexBackend`]), append to, and persist. Two implementations ship:
//!
//! * [`SntIndex`] — the paper's monolithic index. Appends rebuild nothing
//!   but stall every reader behind the service's single write lock, and
//!   invalidation clears the whole result cache.
//! * [`ShardedSntIndex`] — `K` network-partitioned shards. An append
//!   touches only the shards its trajectories cross, so the service can
//!   invalidate just those shards' cache entries; readers of untouched
//!   shards keep their warm entries (`AppendEffect::touched_shards`).
//!
//! The trait also owns the on-disk formats: each backend serializes its
//! own snapshot container and WAL record flavor, and replays its own
//! records on [`QueryService::open_with`](crate::QueryService::open_with)
//! — stamp-checked, so replay stays idempotent across the snapshot/WAL
//! overlap a crash can leave behind.

use tthr_core::persist::prepare_batch;
use tthr_core::{
    CompactionOutcome, HotStats, IndexBackend, ShardStats, ShardedSntIndex, ShardedWalBatch,
    SntIndex, Spq, WalBatch,
};
use tthr_network::Timestamp;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr_trajectory::{TrajEntry, Trajectory, UserId};

/// What one append did to the backend — the service scopes cache
/// invalidation with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppendEffect {
    /// Trajectories appended (0 = no-op, nothing to invalidate).
    pub appended: usize,
    /// Index shards the append wrote, or `None` when the whole index
    /// changed (the monolithic backend): `None` forces a full cache
    /// clear, `Some(shards)` evicts only queries routing to those shards.
    pub(crate) touched_shards: Option<Vec<usize>>,
}

/// An index a [`QueryService`](crate::QueryService) can serve, append to,
/// and persist.
///
/// The write surface is the paper's one update operation and its
/// deferred half: [`Self::ingest`] (Section 4.3.2's batch append, sealed
/// or absorbed) and [`Self::compact`], both required. Each has a `&self`
/// twin only because [`Self::SHARED_APPENDS`] backends mutate under the
/// service's *read* lock; such a backend implements the twins and
/// forwards the `&mut self` pair to them.
pub trait ServiceBackend: IndexBackend + Send + Sync + Sized + 'static {
    /// Whether appends mutate the backend through `&self` under its own
    /// fine-grained locking ([`Self::ingest_shared`]), so the service
    /// applies them under its *read* lock and readers of untouched shards
    /// never stall. `false` routes appends through the service's
    /// exclusive write lock and [`Self::ingest`].
    const SHARED_APPENDS: bool = false;

    /// Excludes other appenders (and snapshots racing appenders) without
    /// blocking readers. Returns `Some` exactly when
    /// [`Self::SHARED_APPENDS`]; the service holds the guard across the
    /// WAL write and the apply, so concurrent appends serialize and log
    /// in apply order.
    fn append_permit(&self) -> Option<std::sync::MutexGuard<'_, ()>> {
        None
    }

    /// Number of trajectories currently indexed (the global id space).
    fn num_trajectories(&self) -> usize;

    /// Temporal partitions currently held (summed across shards for the
    /// sharded backend) — reported in
    /// [`SnapshotInfo`](crate::SnapshotInfo).
    fn num_partitions(&self) -> usize;

    /// Validates a raw `(user, entries)` payload batch against this index
    /// and materializes it with dense ids from `from`, **without**
    /// applying it — so the service can reject a bad batch before its WAL
    /// record is written. Both callers — an append and a WAL replay —
    /// pass the index's own trajectory count, under the serialization
    /// point that keeps it from moving. Validation is independent of
    /// `from`; only the materialized ids differ.
    fn prepare_payload_at(
        &self,
        payload: &[(UserId, Vec<TrajEntry>)],
        from: usize,
    ) -> Result<Vec<Trajectory>, StoreError> {
        prepare_batch(from as u32, self.num_edges(), payload)
    }

    /// Edges of the indexed network — the range payload edge ids must
    /// fall in.
    fn num_edges(&self) -> usize;

    /// Ingests a prepared batch with the next dense ids under the
    /// exclusive write lock: sealed into an immutable partition right
    /// away (`seal`), or absorbed into the backend's mutable hot tail —
    /// the cheap write path [`IngestConfig`](crate::IngestConfig) routes
    /// appends through, where only [`Self::compact`] pays the
    /// FM-index/wavelet construction later. Answers are byte-identical
    /// either way.
    fn ingest(&mut self, batch: Vec<Trajectory>, seal: bool) -> AppendEffect;

    /// [`Self::ingest`] through `&self` under the backend's internal
    /// locks. Only called when [`Self::SHARED_APPENDS`]; the caller holds
    /// [`Self::append_permit`].
    fn ingest_shared(&self, _batch: Vec<Trajectory>, _seal: bool) -> AppendEffect {
        unreachable!("ingest_shared requires SHARED_APPENDS")
    }

    /// Seals every pending hot batch into its own immutable partition (in
    /// absorb order, byte-identical to the index direct appends would have
    /// built) and drops partitions fully expired by `horizon`, under the
    /// exclusive write lock.
    fn compact(&mut self, horizon: Option<Timestamp>) -> CompactionOutcome;

    /// [`Self::compact`] through `&self` under the backend's internal
    /// locks (one shard write-locked at a time, so readers of other
    /// shards proceed undisturbed). Only called when
    /// [`Self::SHARED_APPENDS`]; the caller holds
    /// [`Self::append_permit`].
    fn compact_shared(&self, _horizon: Option<Timestamp>) -> CompactionOutcome {
        unreachable!("compact_shared requires SHARED_APPENDS")
    }

    /// Pending hot-tail accounting (batches, entries, heap bytes; summed
    /// across shards for the sharded backend).
    fn hot_stats(&self) -> HotStats;

    /// Newest entry timestamp the backend has ever indexed — the
    /// high-water mark the service's retention horizon is computed from.
    fn max_data_time(&self) -> Timestamp;

    /// The index shard a query routes to, or `None` when the backend is
    /// unpartitioned. Used to decide which cache entries an append
    /// invalidates; must agree with how `AppendEffect::touched_shards`
    /// numbers shards.
    fn route_shard(&self, spq: &Spq) -> Option<usize>;

    /// Per-shard observability counters, indexed like
    /// [`Self::route_shard`]'s shard numbers; `None` for unpartitioned
    /// backends. The service mirrors these into `{shard=…}` labeled
    /// registry series at scrape time.
    fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        None
    }

    /// Encodes the WAL record logging `batch` ingested at trajectory
    /// count `from`.
    fn encode_wal_record(&self, batch: &[Trajectory], from: usize) -> Vec<u8>;

    /// Replays one WAL record: skips records the snapshot already covers
    /// (base stamp < current trajectory count), seals records that line
    /// up exactly, and reports a [`StoreError::WalGap`] for records that
    /// skip ahead.
    fn replay_wal_record(&mut self, record: &[u8]) -> Result<(), StoreError>;

    /// Streams the backend's snapshot container into a writer.
    fn write_snapshot_to<W: std::io::Write>(&self, out: &mut W) -> Result<(), StoreError>;

    /// Reassembles a backend from snapshot bytes (validating magic,
    /// version, CRCs, and cross-section invariants).
    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError>;
}

/// The stamp check every replay shares: the batch to seal now, `None`
/// for one the snapshot already contains, a [`StoreError::WalGap`] for
/// one that skips ahead of the `have` trajectories indexed.
fn replay_due<B: ServiceBackend>(
    index: &B,
    batch: WalBatch,
) -> Result<Option<Vec<Trajectory>>, StoreError> {
    let have = index.num_trajectories();
    match batch.base.cmp(&(have as u64)) {
        std::cmp::Ordering::Less => Ok(None),
        std::cmp::Ordering::Greater => Err(StoreError::WalGap {
            expected: have as u64,
            found: batch.base,
        }),
        std::cmp::Ordering::Equal => index
            .prepare_payload_at(&batch.trajectories, have)
            .map(Some),
    }
}

impl ServiceBackend for SntIndex {
    fn num_trajectories(&self) -> usize {
        SntIndex::num_trajectories(self)
    }

    fn num_partitions(&self) -> usize {
        SntIndex::num_partitions(self)
    }

    fn num_edges(&self) -> usize {
        SntIndex::num_edges(self)
    }

    fn ingest(&mut self, batch: Vec<Trajectory>, seal: bool) -> AppendEffect {
        AppendEffect {
            appended: SntIndex::ingest(self, batch, seal),
            touched_shards: None,
        }
    }

    fn compact(&mut self, horizon: Option<Timestamp>) -> CompactionOutcome {
        SntIndex::compact(self, horizon)
    }

    fn hot_stats(&self) -> HotStats {
        SntIndex::hot_stats(self)
    }

    fn max_data_time(&self) -> Timestamp {
        self.data_max()
    }

    fn route_shard(&self, _spq: &Spq) -> Option<usize> {
        None
    }

    fn encode_wal_record(&self, batch: &[Trajectory], from: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        WalBatch::encode(from as u64, batch, &mut w);
        w.into_bytes()
    }

    fn replay_wal_record(&mut self, record: &[u8]) -> Result<(), StoreError> {
        let mut r = ByteReader::new(record);
        let batch = WalBatch::restore(&mut r)?;
        r.expect_exhausted("wal record")?;
        if let Some(due) = replay_due(self, batch)? {
            SntIndex::ingest(self, due, true);
        }
        Ok(())
    }

    fn write_snapshot_to<W: std::io::Write>(&self, out: &mut W) -> Result<(), StoreError> {
        SntIndex::write_snapshot_to(self, out)
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        SntIndex::from_snapshot_bytes(bytes)
    }
}

impl ServiceBackend for ShardedSntIndex {
    const SHARED_APPENDS: bool = true;

    fn append_permit(&self) -> Option<std::sync::MutexGuard<'_, ()>> {
        Some(ShardedSntIndex::append_permit(self))
    }

    fn num_trajectories(&self) -> usize {
        ShardedSntIndex::num_trajectories(self)
    }

    fn num_partitions(&self) -> usize {
        ShardedSntIndex::num_partitions(self)
    }

    fn num_edges(&self) -> usize {
        self.router().num_edges()
    }

    fn ingest(&mut self, batch: Vec<Trajectory>, seal: bool) -> AppendEffect {
        self.ingest_shared(batch, seal)
    }

    fn ingest_shared(&self, batch: Vec<Trajectory>, seal: bool) -> AppendEffect {
        let effect = ShardedSntIndex::ingest(self, batch, seal);
        AppendEffect {
            appended: effect.appended,
            touched_shards: Some(effect.touched),
        }
    }

    fn compact(&mut self, horizon: Option<Timestamp>) -> CompactionOutcome {
        self.compact_shared(horizon)
    }

    fn compact_shared(&self, horizon: Option<Timestamp>) -> CompactionOutcome {
        ShardedSntIndex::compact(self, horizon)
    }

    fn hot_stats(&self) -> HotStats {
        ShardedSntIndex::hot_stats(self)
    }

    fn max_data_time(&self) -> Timestamp {
        self.data_max()
    }

    fn route_shard(&self, spq: &Spq) -> Option<usize> {
        Some(self.router().shard_of(spq.path.first()))
    }

    fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        Some(ShardedSntIndex::shard_stats(self))
    }

    /// The monolithic record behind the shard ids the batch routes to
    /// under the current routing table ([`ShardedWalBatch`]'s layout).
    fn encode_wal_record(&self, batch: &[Trajectory], from: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_seq(&self.router().batch_shards(batch));
        WalBatch::encode(from as u64, batch, &mut w);
        w.into_bytes()
    }

    fn replay_wal_record(&mut self, record: &[u8]) -> Result<(), StoreError> {
        let mut r = ByteReader::new(record);
        let tagged = ShardedWalBatch::restore(&mut r)?;
        r.expect_exhausted("sharded wal record")?;
        let Some(due) = replay_due(self, tagged.batch)? else {
            return Ok(());
        };
        let effect = ShardedSntIndex::ingest(self, due, true);
        // The record carries the routing the writer observed; a
        // disagreement means the snapshot's routing table is not the one
        // the log was written against.
        let applied: Vec<u16> = effect.touched.iter().map(|&s| s as u16).collect();
        if applied != tagged.touched {
            return Err(StoreError::corrupt(format!(
                "wal record routed to shards {:?} but the routing table maps it to {:?}",
                tagged.touched, applied
            )));
        }
        Ok(())
    }

    fn write_snapshot_to<W: std::io::Write>(&self, out: &mut W) -> Result<(), StoreError> {
        ShardedSntIndex::write_snapshot_to(self, out)
    }

    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        ShardedSntIndex::from_snapshot_bytes(bytes)
    }
}
