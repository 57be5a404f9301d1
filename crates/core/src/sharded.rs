//! Multi-index sharding: a partitioned SNT-index with exact routing and
//! per-shard locking.
//!
//! The monolithic [`SntIndex`] serves every query and absorbs every append
//! through one structure — in the service layer that means one `RwLock`
//! write stall per append and one giant blob per rebuild. This module
//! partitions the *road network* into `K` edge groups (a zone/grid
//! partitioner in the spirit of the π_Z strategy of
//! [`crate::partition`]) and builds one full `SntIndex` per group over
//! exactly the trajectories that touch the group's edges. Each shard sits
//! behind its **own** `RwLock`, so an append write-locks only the shards
//! its batch routes to — readers of every other shard proceed without
//! stalling (`untouched_shard_answers_while_another_is_write_locked`
//! pins it).
//!
//! # Why routing by first edge is exact
//!
//! A shard `s` holds the **complete** trajectory (all entries, original
//! aggregates) of every trajectory that traverses at least one edge of
//! `s`. Any trajectory matching an SPQ traverses the query path strictly,
//! so in particular it traverses the path's first edge — hence it is a
//! member of `shard(P[0])`. Routing every index operation whose pattern
//! starts at edge `e` to `shard(e)` therefore loses no candidates, and
//! because shard membership preserves the global trajectory order (and
//! temporal trees break timestamp ties by insertion order), scans return
//! the same leaves in the same order as the monolith: answers are
//! **byte-identical**, including β-capped prefixes, fallback estimates,
//! counting queries, and the cardinality estimator's per-partition sums.
//! The differential suite in `tests/equivalence.rs` pins this
//! contract for K ∈ {1, 2, 7} across query/append/snapshot/reopen
//! interleavings.
//!
//! The cost is bounded duplication: a trajectory crossing `m` shards is
//! indexed `m` times (the partition-by-fingerprint trade-off of Chapuis
//! et al.); the zone/grid partitioner keeps `m` small because real paths
//! are spatially local.
//!
//! # Concurrency contract
//!
//! Every query method takes `&self` and locks exactly one shard for
//! reading, so a single SPQ is always answered from one atomic shard
//! state. Appends also take `&self` (write-locking only the touched
//! shards) but are **not self-serializing**: concurrent appenders, and
//! snapshots racing appenders, must hold the [`ShardedSntIndex::append_permit`]
//! mutex — `tthr-service` does this for you and additionally validates
//! result-cache inserts and trip-query assembly against an append
//! generation counter.
//!
//! # Temporal-partitioning caveat
//!
//! [`ShardedSntIndex::build`] requires `config.partition_days == None`
//! (the paper's `FULL` configuration, the default): per-shard day
//! bucketing would anchor at each shard's own `data_min`, shifting bucket
//! boundaries relative to the monolith and with them the tie order of
//! equal-timestamp scans. Appends still create one temporal partition per
//! batch — identically in the monolith and in every touched shard.

use crate::interval::TimeInterval;
use crate::persist::WalBatch;
use crate::snt::{SntConfig, SntIndex, TravelTimes};
use crate::spq::Spq;
use crate::{CardinalityMode, IndexBackend, TravelTimeProvider};
use std::borrow::Cow;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use tthr_network::{EdgeId, RoadNetwork, Timestamp};
use tthr_store::snapshot::{SectionId, SnapshotArchive, SnapshotBuilder};
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr_trajectory::{TrajEntry, TrajId, Trajectory, TrajectorySet};

/// Header section of a sharded snapshot: shard count, routing-table shape,
/// trajectory count, data span, construction config.
pub const SECTION_SHARDED_META: SectionId = SectionId(101);
/// The edge → shard routing table.
pub const SECTION_ROUTING: SectionId = SectionId(102);
/// Section id of shard `s` is `SHARD_SECTION_BASE + s`; the payload is the
/// shard's member list followed by its full monolithic snapshot container.
pub const SHARD_SECTION_BASE: u32 = 1000;

/// A static edge → shard assignment over a road network.
///
/// Built by sorting edges by `(zone, x, y, id)` of their source vertex and
/// chunking the order into `K` near-equal contiguous groups: shards are
/// zone-coherent and spatially contiguous (a grid-column sweep within each
/// zone class), so trajectories — which are spatially local — cross few
/// shards, and shard sizes are balanced to ±1 edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    /// `shard_of_edge[e] = s` for every edge id `e`.
    shard_of_edge: Vec<u16>,
    num_shards: usize,
}

impl ShardRouter {
    /// Partitions `network`'s edges into `num_shards` groups.
    ///
    /// # Panics
    /// Panics if `num_shards` is 0 or exceeds `u16::MAX`.
    pub fn build(network: &RoadNetwork, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "at least one shard");
        assert!(num_shards <= u16::MAX as usize, "shard id space is u16");
        let mut order: Vec<EdgeId> = network.edge_ids().collect();
        let key = |e: EdgeId| {
            let p = network.position(network.edge_from(e));
            (network.attrs(e).zone as u8, p.x, p.y, e.0)
        };
        order.sort_by(|&a, &b| {
            let (za, xa, ya, ia) = key(a);
            let (zb, xb, yb, ib) = key(b);
            za.cmp(&zb)
                .then(xa.total_cmp(&xb))
                .then(ya.total_cmp(&yb))
                .then(ia.cmp(&ib))
        });
        let mut shard_of_edge = vec![0u16; network.num_edges()];
        let n = order.len();
        for (rank, e) in order.into_iter().enumerate() {
            // Contiguous chunks of ⌈n/K⌉ / ⌊n/K⌋ edges.
            shard_of_edge[e.index()] = ((rank * num_shards) / n.max(1)) as u16;
        }
        ShardRouter {
            shard_of_edge,
            num_shards,
        }
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of edges in the routing table.
    pub fn num_edges(&self) -> usize {
        self.shard_of_edge.len()
    }

    /// The shard owning an edge.
    ///
    /// # Panics
    /// Panics if the edge id is outside the routed network.
    pub fn shard_of(&self, e: EdgeId) -> usize {
        self.shard_of_edge[e.index()] as usize
    }

    /// Sorted, deduplicated shard ids touched by a sequence of entries —
    /// the shards that must index a trajectory traversing them. Public
    /// because the cluster tier's router plans per-node append subsets
    /// with exactly this partition (see [`crate::node`]).
    pub(crate) fn shards_touched(&self, entries: &[TrajEntry]) -> Vec<u16> {
        self.shards_of(entries.iter())
    }

    /// Sorted, deduplicated shard ids a whole batch touches — the tag a
    /// [`ShardedWalBatch`] stores.
    pub fn batch_shards(&self, batch: &[Trajectory]) -> Vec<u16> {
        self.shards_of(batch.iter().flat_map(|tr| tr.entries()))
    }

    fn shards_of<'a>(&self, entries: impl Iterator<Item = &'a TrajEntry>) -> Vec<u16> {
        let mut shards: Vec<u16> = entries
            .map(|en| self.shard_of_edge[en.edge.index()])
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// Wire form: shard count (u32) + the per-edge table.
impl Persist for ShardRouter {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.num_shards as u32);
        w.put_seq(&self.shard_of_edge);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let num_shards = r.get_u32()? as usize;
        if num_shards == 0 || num_shards > u16::MAX as usize {
            return Err(StoreError::corrupt(format!(
                "routing table claims {num_shards} shards"
            )));
        }
        let shard_of_edge: Vec<u16> = r.get_seq()?;
        if let Some(bad) = shard_of_edge.iter().find(|&&s| (s as usize) >= num_shards) {
            return Err(StoreError::corrupt(format!(
                "routing table entry {bad} out of range for {num_shards} shards"
            )));
        }
        Ok(ShardRouter {
            shard_of_edge,
            num_shards,
        })
    }
}

/// The effect of one sharded append: how many trajectories were added and
/// which shards absorbed leaves. Untouched shards were never even
/// write-locked — the service layer uses this to scope cache
/// invalidation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedAppend {
    /// Trajectories appended (0 leaves every shard unchanged).
    pub appended: usize,
    /// Sorted ids of the shards that received leaves.
    pub touched: Vec<usize>,
}

/// One sharded write-ahead-log record: the monolithic [`WalBatch`] tagged
/// with the shard ids the batch routes to under the writing service's
/// routing table. Replay re-derives the routing and rejects a record whose
/// tag disagrees — the snapshot's routing table and the log would then
/// describe different partitionings, and applying the batch could silently
/// skew shard membership.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedWalBatch {
    /// Sorted shard ids the batch touches.
    pub touched: Vec<u16>,
    /// The appended trajectories with their base stamp.
    pub batch: WalBatch,
}

/// Wire form: the touched-shard tag, then the monolithic batch record.
impl Persist for ShardedWalBatch {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_seq(&self.touched);
        self.batch.persist(w);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let touched: Vec<u16> = r.get_seq()?;
        let batch = WalBatch::restore(r)?;
        Ok(ShardedWalBatch { touched, batch })
    }
}

/// One shard — the unit both [`ShardedSntIndex`] (`K` of them, each behind
/// its own lock) and [`crate::ShardNodeState`] (one, plus the cluster's
/// global counters) are made of: the index and its member list, guarded
/// together so a reader always sees the exclusion-id translation that
/// matches the index content.
pub(crate) struct Shard {
    pub(crate) index: SntIndex,
    /// `members[local] = global` trajectory id, ascending — shard-local
    /// dense ids preserve the global order, which is what keeps timestamp
    /// tie-breaks identical to the monolith.
    pub(crate) members: Vec<u32>,
}

impl Shard {
    /// Pairs a restored index with its member list, validating the shard
    /// invariants against the global id space and the routed network:
    /// strictly ascending members below `num_global`, one member per
    /// indexed trajectory, and an index over exactly `num_edges` edges.
    pub(crate) fn new(
        index: SntIndex,
        members: Vec<u32>,
        num_global: u64,
        num_edges: usize,
    ) -> Result<Self, StoreError> {
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::corrupt(
                "shard members are not strictly ascending",
            ));
        }
        if let Some(&bad) = members.iter().find(|&&g| g as u64 >= num_global) {
            return Err(StoreError::corrupt(format!(
                "shard member {bad} out of range for {num_global} trajectories"
            )));
        }
        if index.num_trajectories() != members.len() {
            return Err(StoreError::corrupt(format!(
                "shard indexes {} trajectories but lists {} members",
                index.num_trajectories(),
                members.len()
            )));
        }
        if index.num_edges() != num_edges {
            return Err(StoreError::corrupt(format!(
                "shard index covers {} edges, routing table {num_edges}",
                index.num_edges()
            )));
        }
        Ok(Shard { index, members })
    }

    /// Translates the global exclusion id into the shard-local id space
    /// (or drops it when the excluded trajectory has no occurrences in
    /// the shard — it then cannot match the query anyway, because
    /// matching implies membership).
    fn translate<'q>(&self, spq: &'q Spq) -> Cow<'q, Spq> {
        match spq.exclude {
            None => Cow::Borrowed(spq),
            Some(TrajId(global)) => {
                let mut q = spq.clone();
                q.exclude = self
                    .members
                    .binary_search(&global)
                    .ok()
                    .map(|local| TrajId(local as u32));
                Cow::Owned(q)
            }
        }
    }

    /// Runs a read primitive of the shard's index on a query routed to
    /// this shard, its exclusion id translated into the shard's id space.
    pub(crate) fn query<R>(&self, spq: &Spq, run: impl FnOnce(&SntIndex, &Spq) -> R) -> R {
        run(&self.index, &self.translate(spq))
    }

    /// Ingests the batch members that cross this shard: `globals[i]` is
    /// the global id of `trajs[i]`, ascending and above every present
    /// member.
    pub(crate) fn ingest(&mut self, globals: &[u32], trajs: Vec<Trajectory>, seal: bool) {
        debug_assert_eq!(globals.len(), trajs.len());
        self.members.extend_from_slice(globals);
        self.index.ingest(trajs, seal);
    }
}

/// A partitioned SNT-index: `K` independently locked [`SntIndex`] shards
/// plus a thin routing table (see the module docs for the exactness
/// argument and the concurrency contract).
pub struct ShardedSntIndex {
    config: SntConfig,
    router: ShardRouter,
    shards: Vec<RwLock<Shard>>,
    /// Serializes appenders (and snapshots against appenders) without
    /// blocking readers; see [`ShardedSntIndex::append_permit`].
    append_serial: Mutex<()>,
    num_trajectories: AtomicUsize,
    data_min: AtomicI64,
    data_max: AtomicI64,
    /// Observational per-shard counters (never read on the query path);
    /// one per shard, indexed like `shards`.
    shard_counters: Vec<ShardCounters>,
}

/// Lifetime counters one shard accumulates; exposed as [`ShardStats`].
#[derive(Default)]
struct ShardCounters {
    /// Append batches that write-locked this shard.
    appends: AtomicU64,
    /// Trajectories those batches added to this shard.
    appended_trajectories: AtomicU64,
    /// Nanoseconds appenders spent waiting to acquire this shard's write
    /// lock (reader contention made visible).
    lock_wait_ns: AtomicU64,
}

/// Point-in-time statistics of one shard, read through
/// [`ShardedSntIndex::shard_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Trajectories currently indexed by the shard (members list length).
    pub trajectories: u64,
    /// Append batches that touched the shard since construction.
    pub appends: u64,
    /// Trajectories appended to the shard since construction.
    pub appended_trajectories: u64,
    /// Total nanoseconds appenders waited on the shard's write lock.
    pub lock_wait_ns: u64,
}

impl ShardedSntIndex {
    /// Builds `num_shards` shards over a trajectory set.
    ///
    /// Every shard indexes the full entry sequence of each member
    /// trajectory (aggregates and FM-text are those of the whole
    /// trajectory), so answers match the monolith bit for bit.
    ///
    /// # Panics
    /// Panics if `num_shards` is 0 or `config.partition_days` is set (see
    /// the module docs for why per-shard day bucketing breaks the
    /// byte-equality contract).
    pub fn build(
        network: &RoadNetwork,
        trajectories: &TrajectorySet,
        config: SntConfig,
        num_shards: usize,
    ) -> Self {
        assert!(
            config.partition_days.is_none(),
            "sharded builds require the FULL temporal configuration \
             (partition_days = None): per-shard day buckets would anchor \
             at shard-local data_min and break monolith byte-equality"
        );
        let router = ShardRouter::build(network, num_shards);
        let k = router.num_shards();
        let mut subsets: Vec<TrajectorySet> = (0..k).map(|_| TrajectorySet::new()).collect();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut data_min = Timestamp::MAX;
        let mut data_max = Timestamp::MIN;
        for tr in trajectories {
            data_min = data_min.min(tr.start_time());
            let last = tr.entries().last().expect("trajectories are non-empty");
            data_max = data_max.max(last.enter_time);
            for &s in &router.shards_touched(tr.entries()) {
                subsets[s as usize]
                    .push(tr.user(), tr.entries().to_vec())
                    .expect("member of a valid set");
                members[s as usize].push(tr.id().0);
            }
        }
        if trajectories.is_empty() {
            data_min = 0;
            data_max = 0;
        }
        let shards = subsets
            .iter()
            .zip(members)
            .map(|(subset, members)| {
                RwLock::new(Shard {
                    index: SntIndex::build(network, subset, config),
                    members,
                })
            })
            .collect();
        ShardedSntIndex {
            config,
            router,
            shards,
            append_serial: Mutex::new(()),
            num_trajectories: AtomicUsize::new(trajectories.len()),
            data_min: AtomicI64::new(data_min),
            data_max: AtomicI64::new(data_max),
            shard_counters: (0..k).map(|_| ShardCounters::default()).collect(),
        }
    }

    /// The edge → shard routing table.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs a closure against one shard's index (read-locked).
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&SntIndex) -> R) -> R {
        f(&self.read_shard(s).index)
    }

    /// Global trajectory ids indexed by shard `s`, ascending.
    pub fn shard_members(&self, s: usize) -> Vec<u32> {
        self.read_shard(s).members.clone()
    }

    /// Point-in-time per-shard statistics (one entry per shard). Counter
    /// fields are lifetime totals since this in-memory instance was
    /// constructed (restores start from zero); `trajectories` is the
    /// shard's current membership size.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len())
            .map(|s| {
                let c = &self.shard_counters[s];
                ShardStats {
                    trajectories: self.read_shard(s).members.len() as u64,
                    appends: c.appends.load(Ordering::Relaxed),
                    appended_trajectories: c.appended_trajectories.load(Ordering::Relaxed),
                    lock_wait_ns: c.lock_wait_ns.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Number of trajectories appended across the index's lifetime (the
    /// global id space; shard-local counts are larger in sum whenever
    /// trajectories cross shard boundaries).
    pub fn num_trajectories(&self) -> usize {
        self.num_trajectories.load(Ordering::Acquire)
    }

    /// Total temporal partitions across all shards (each shard counts its
    /// initial build plus one per touching batch).
    pub fn num_partitions(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.read_shard(s).index.num_partitions())
            .sum()
    }

    /// Earliest trajectory start time across all shards.
    pub fn data_min(&self) -> Timestamp {
        self.data_min.load(Ordering::Acquire)
    }

    /// Latest segment entry time across all shards (`t_max`).
    pub fn data_max(&self) -> Timestamp {
        self.data_max.load(Ordering::Acquire)
    }

    /// Excludes other appenders — and snapshots from racing appenders —
    /// while held; readers are unaffected. [`ShardedSntIndex::ingest`]
    /// and the snapshot writers do **not** take this internally (so a
    /// holder can compose append + WAL logging atomically, the way
    /// `tthr-service` does); anyone running concurrent appenders must
    /// hold it across each append, and snapshots taken while an appender
    /// may run must hold it too.
    pub fn append_permit(&self) -> MutexGuard<'_, ()> {
        self.append_serial.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn read_shard(&self, s: usize) -> RwLockReadGuard<'_, Shard> {
        self.shards[s].read().unwrap_or_else(|e| e.into_inner())
    }

    /// Read-locks the shard owning a query (the shard of its path's first
    /// edge), noting the routing in the scratch's trace.
    fn route(&self, spq: &Spq, scratch: &mut crate::SearchScratch) -> RwLockReadGuard<'_, Shard> {
        let s = self.router.shard_of(spq.path.first());
        scratch.trace.note_shard(s);
        self.read_shard(s)
    }

    /// `getTravelTimes` routed to the owning shard — byte-identical to the
    /// monolith over the same history (Procedure 5 semantics). Locks one
    /// shard for reading: the answer always reflects one atomic shard
    /// state.
    pub fn get_travel_times(&self, spq: &Spq) -> TravelTimes {
        self.get_travel_times_with(spq, &mut crate::SearchScratch::new())
    }

    /// [`ShardedSntIndex::get_travel_times`] through a per-query
    /// [`SearchScratch`](crate::SearchScratch). Each shard's inner index
    /// tags the scratch with its own process-unique id (plus its
    /// trajectory count), so a relaxation chain whose sub-paths route to
    /// different shards — or races an append — can never be served cached
    /// ranges from the wrong index state.
    pub fn get_travel_times_with(
        &self,
        spq: &Spq,
        scratch: &mut crate::SearchScratch,
    ) -> TravelTimes {
        self.route(spq, scratch)
            .query(spq, |i, q| i.get_travel_times_with(q, scratch))
    }

    /// A whole relaxation ladder routed to the owning shard under **one**
    /// read lock ([`SntIndex::travel_times_ladder_with`]): every level
    /// keeps the path, so every level routes to the same shard, and the
    /// answer reflects one atomic shard state.
    pub(crate) fn travel_times_ladder_with(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut crate::SearchScratch,
    ) -> (usize, TravelTimes) {
        self.route(spq, scratch)
            .query(spq, |i, q| i.travel_times_ladder_with(q, levels, scratch))
    }

    /// Exact predicate-matching traversal count with a fresh scratch: the
    /// tests' convenience over [`ShardedSntIndex::count_matching_with`].
    #[cfg(test)]
    pub(crate) fn count_matching(&self, spq: &Spq, cap: u32) -> usize {
        self.count_matching_with(spq, cap, &mut crate::SearchScratch::new())
    }

    /// Exact predicate-matching traversal count, routed like a query,
    /// through a per-shard-tagged scratch.
    pub fn count_matching_with(
        &self,
        spq: &Spq,
        cap: u32,
        scratch: &mut crate::SearchScratch,
    ) -> usize {
        self.route(spq, scratch)
            .query(spq, |i, q| i.count_matching_with(q, cap, scratch))
    }

    /// Appends all trajectories of `set` with ids `≥ num_trajectories()`
    /// as one sealed batch over [`ShardedSntIndex::ingest`]: the tests'
    /// whole-set update helper.
    #[cfg(test)]
    pub(crate) fn append_batch(&self, set: &TrajectorySet) -> ShardedAppend {
        let delta = set.iter().skip(self.num_trajectories()).cloned().collect();
        self.ingest(delta, true)
    }

    /// The one mutator: ingests a batch with the next dense global ids
    /// (embedded ids are ignored), each touched shard running
    /// [`SntIndex::ingest`] over the batch members that cross it —
    /// sealed into one new temporal partition per touched shard, or
    /// absorbed into their hot tails (`seal = false`). Untouched shards
    /// are not even write-locked, and answers stay byte-identical to the
    /// monolith ingesting the same batch under the same flag. See the
    /// module docs (and [`ShardedSntIndex::append_permit`]) for the
    /// multi-appender serialization contract.
    pub fn ingest(&self, batch: Vec<Trajectory>, seal: bool) -> ShardedAppend {
        if batch.is_empty() {
            return ShardedAppend::default();
        }
        let from = self.num_trajectories() as u32;
        let k = self.shards.len();
        let mut per_shard: Vec<Vec<Trajectory>> = vec![Vec::new(); k];
        let mut new_members: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, tr) in batch.iter().enumerate() {
            self.data_min.fetch_min(tr.start_time(), Ordering::AcqRel);
            let last = tr.entries().last().expect("trajectories are non-empty");
            self.data_max.fetch_max(last.enter_time, Ordering::AcqRel);
            for &s in &self.router.shards_touched(tr.entries()) {
                per_shard[s as usize].push(tr.clone());
                new_members[s as usize].push(from + i as u32);
            }
        }
        let mut touched = Vec::new();
        for (s, trajs) in per_shard.into_iter().enumerate() {
            if trajs.is_empty() {
                continue;
            }
            // Only this shard's readers wait, and only for this append.
            let wait = std::time::Instant::now();
            let mut shard = self.shards[s].write().unwrap_or_else(|e| e.into_inner());
            let counters = &self.shard_counters[s];
            counters
                .lock_wait_ns
                .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
            counters.appends.fetch_add(1, Ordering::Relaxed);
            counters
                .appended_trajectories
                .fetch_add(trajs.len() as u64, Ordering::Relaxed);
            shard.ingest(&new_members[s], trajs, seal);
            touched.push(s);
        }
        self.num_trajectories
            .store(from as usize + batch.len(), Ordering::Release);
        ShardedAppend {
            appended: batch.len(),
            touched,
        }
    }

    /// Compacts every shard — seals pending hot batches and applies the
    /// retention horizon — write-locking one shard at a time, so readers
    /// of other shards proceed undisturbed. Callers running concurrent
    /// appenders must hold [`ShardedSntIndex::append_permit`] across the
    /// call, like any other multi-writer operation.
    pub fn compact(&self, retention_horizon: Option<Timestamp>) -> crate::CompactionOutcome {
        let mut out = crate::CompactionOutcome::default();
        for s in 0..self.shards.len() {
            let mut shard = self.shards[s].write().unwrap_or_else(|e| e.into_inner());
            out.merge(&shard.index.compact(retention_horizon));
        }
        out
    }

    /// Aggregated hot-tail accounting across all shards.
    pub fn hot_stats(&self) -> crate::HotStats {
        let mut out = crate::HotStats::default();
        for s in 0..self.shards.len() {
            let st = self.read_shard(s).index.hot_stats();
            out.batches += st.batches;
            out.entries += st.entries;
            out.bytes += st.bytes;
        }
        out
    }

    /// Serializes the sharded index into one snapshot container:
    /// [`SECTION_SHARDED_META`], [`SECTION_ROUTING`], then one section per
    /// shard (id [`SHARD_SECTION_BASE`]` + s`) holding the shard's member
    /// list and its complete monolithic snapshot bytes.
    ///
    /// Shards are read-locked one at a time; hold
    /// [`ShardedSntIndex::append_permit`] if an appender may run
    /// concurrently, or the sections could straddle an append.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_builder().into_bytes()
    }

    /// Streams the snapshot container into a writer (the sharded
    /// counterpart of [`SntIndex::write_snapshot_to`]); the same
    /// appender-quiescence note as [`ShardedSntIndex::to_snapshot_bytes`]
    /// applies.
    pub fn write_snapshot_to<W: std::io::Write>(&self, out: &mut W) -> Result<(), StoreError> {
        self.snapshot_builder().write_to(out)
    }

    fn snapshot_builder(&self) -> SnapshotBuilder {
        let mut builder = SnapshotBuilder::new();

        let mut meta = ByteWriter::new();
        self.config.persist(&mut meta);
        meta.put_u32(self.shards.len() as u32);
        meta.put_len(self.num_trajectories());
        meta.put_i64(self.data_min());
        meta.put_i64(self.data_max());
        meta.put_len(self.router.num_edges());
        builder.add_section(SECTION_SHARDED_META, meta.into_bytes());

        let mut routing = ByteWriter::new();
        self.router.persist(&mut routing);
        builder.add_section(SECTION_ROUTING, routing.into_bytes());

        for s in 0..self.shards.len() {
            let shard = self.read_shard(s);
            let mut w = ByteWriter::new();
            w.put_seq(&shard.members);
            let bytes = shard.index.to_snapshot_bytes();
            w.put_len(bytes.len());
            w.put_bytes(&bytes);
            builder.add_section(SectionId(SHARD_SECTION_BASE + s as u32), w.into_bytes());
        }
        builder
    }

    /// Reassembles a sharded index from a snapshot container, verifying
    /// the per-section CRCs (via [`SnapshotArchive`]) plus the
    /// cross-section invariants: routing-table shape, shard configs,
    /// member-list monotonicity, member counts against each shard's
    /// trajectory count, and global-id coverage.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let archive = SnapshotArchive::from_bytes(bytes)?;

        let mut meta = archive.section(SECTION_SHARDED_META)?;
        let config = SntConfig::restore(&mut meta)?;
        let k = meta.get_u32()? as usize;
        let num_trajectories = meta.get_u64()? as usize;
        let data_min = meta.get_i64()?;
        let data_max = meta.get_i64()?;
        let num_edges = meta.get_u64()? as usize;
        meta.expect_exhausted("sharded meta section")?;
        if k == 0 || k > u16::MAX as usize {
            return Err(StoreError::corrupt(format!("meta claims {k} shards")));
        }
        // Every trajectory appears in at least one member list (≥ 4 bytes
        // in the container), so a count beyond the container length is
        // corrupt — reject it before sizing the coverage bitmap, or a
        // crafted meta section could force a huge allocation instead of a
        // typed error.
        if num_trajectories > bytes.len() {
            return Err(StoreError::corrupt(format!(
                "meta claims {num_trajectories} trajectories in a {}-byte container",
                bytes.len()
            )));
        }

        let mut routing = archive.section(SECTION_ROUTING)?;
        let router = ShardRouter::restore(&mut routing)?;
        routing.expect_exhausted("routing section")?;
        if router.num_shards() != k {
            return Err(StoreError::corrupt(format!(
                "meta promises {k} shards, routing table has {}",
                router.num_shards()
            )));
        }
        if router.num_edges() != num_edges {
            return Err(StoreError::corrupt(format!(
                "meta promises {num_edges} edges, routing table has {}",
                router.num_edges()
            )));
        }

        let mut shards = Vec::with_capacity(k);
        let mut covered = vec![false; num_trajectories];
        for s in 0..k {
            let mut r = archive.section(SectionId(SHARD_SECTION_BASE + s as u32))?;
            let members: Vec<u32> = r.get_seq()?;
            let len = r.get_len(1)?;
            let shard_bytes = r.get_bytes(len)?;
            let index = SntIndex::from_snapshot_bytes(shard_bytes)?;
            r.expect_exhausted("shard section")?;
            if *index.config() != config {
                return Err(StoreError::corrupt(format!(
                    "shard {s} config disagrees with the sharded meta config"
                )));
            }
            let shard = Shard::new(index, members, num_trajectories as u64, num_edges)?;
            for &g in &shard.members {
                covered[g as usize] = true;
            }
            shards.push(RwLock::new(shard));
        }
        if let Some(orphan) = covered.iter().position(|&c| !c) {
            return Err(StoreError::corrupt(format!(
                "trajectory {orphan} belongs to no shard"
            )));
        }
        Ok(ShardedSntIndex {
            config,
            router,
            shards,
            append_serial: Mutex::new(()),
            num_trajectories: AtomicUsize::new(num_trajectories),
            data_min: AtomicI64::new(data_min),
            data_max: AtomicI64::new(data_max),
            shard_counters: (0..k).map(|_| ShardCounters::default()).collect(),
        })
    }
}

impl TravelTimeProvider for ShardedSntIndex {
    fn travel_times_with(&self, spq: &Spq, scratch: &mut crate::SearchScratch) -> TravelTimes {
        self.get_travel_times_with(spq, scratch)
    }

    fn travel_times_ladder(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut crate::SearchScratch,
    ) -> (usize, TravelTimes) {
        self.travel_times_ladder_with(spq, levels, scratch)
    }
}

impl IndexBackend for ShardedSntIndex {
    fn count_matching_with(
        &self,
        spq: &Spq,
        cap: u32,
        scratch: &mut crate::SearchScratch,
    ) -> usize {
        ShardedSntIndex::count_matching_with(self, spq, cap, scratch)
    }

    fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> f64 {
        // The owning shard sees every traversal of the path's first edge,
        // so its ISA counts and per-partition ToD histograms match the
        // monolith's term for term (absent partitions contribute 0).
        self.read_shard(self.router.shard_of(spq.path.first()))
            .query(spq, |i, q| {
                crate::cardinality::estimate_cardinality(i, q, mode)
            })
    }

    fn full_interval(&self) -> TimeInterval {
        // The *global* span, so σ's terminal fallback query is literally
        // the same Spq the monolith derives.
        TimeInterval::fixed(self.data_min().min(0), self.data_max() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_C, EDGE_D, EDGE_E, EDGE_F};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;

    fn monolith() -> SntIndex {
        SntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
        )
    }

    fn sharded(k: usize) -> ShardedSntIndex {
        ShardedSntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
            k,
        )
    }

    fn workload() -> Vec<Spq> {
        vec![
            Spq::new(
                Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
                TimeInterval::fixed(0, 15),
            )
            .with_beta(2),
            Spq::new(Path::new(vec![EDGE_A, EDGE_B]), TimeInterval::fixed(0, 15)).with_beta(3),
            Spq::new(Path::new(vec![EDGE_E]), TimeInterval::fixed(0, 15)).with_beta(3),
            Spq::new(Path::new(vec![EDGE_F]), TimeInterval::periodic(0, 900)).with_beta(3),
            Spq::new(Path::new(vec![EDGE_B, EDGE_E]), TimeInterval::fixed(0, 100))
                .with_user(tthr_trajectory::UserId(1)),
            Spq::new(
                Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
                TimeInterval::fixed(0, 100),
            )
            .without_trajectory(TrajId(0)),
        ]
    }

    fn assert_matches_monolith(mono: &SntIndex, sharded: &ShardedSntIndex) {
        for spq in workload() {
            let a = mono.get_travel_times(&spq);
            let b = sharded.get_travel_times(&spq);
            let ab: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{spq:?}");
            assert_eq!(a.fallback, b.fallback, "{spq:?}");
            assert_eq!(
                mono.count_matching(&spq, u32::MAX),
                sharded.count_matching(&spq, u32::MAX),
                "{spq:?}"
            );
        }
    }

    #[test]
    fn router_covers_every_edge_with_balanced_shards() {
        let net = example_network();
        for k in [1usize, 2, 3, 6, 7] {
            let router = ShardRouter::build(&net, k);
            assert_eq!(router.num_edges(), net.num_edges());
            let mut sizes = vec![0usize; k];
            for e in net.edge_ids() {
                sizes[router.shard_of(e)] += 1;
            }
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "k={k}: sizes {sizes:?}");
        }
    }

    #[test]
    fn router_round_trips_through_persist() {
        let router = ShardRouter::build(&example_network(), 3);
        let mut w = ByteWriter::new();
        router.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(ShardRouter::restore(&mut r).unwrap(), router);
        r.expect_exhausted("router").unwrap();
    }

    #[test]
    fn sharded_answers_match_monolith_for_all_k() {
        let mono = monolith();
        for k in [1usize, 2, 7] {
            assert_matches_monolith(&mono, &sharded(k));
        }
    }

    #[test]
    fn exclusion_translates_into_shard_local_ids() {
        // tr0 and tr3 traverse ⟨A,B,E⟩; excluding tr0 must drop exactly
        // one answer regardless of how local ids shifted.
        let mono = monolith();
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 100),
        )
        .without_trajectory(TrajId(0));
        for k in [2usize, 7] {
            let idx = sharded(k);
            assert_eq!(
                idx.get_travel_times(&q).sorted(),
                mono.get_travel_times(&q).sorted(),
                "k={k}"
            );
        }
    }

    #[test]
    fn append_batch_reports_touched_shards_only() {
        let idx = sharded(7);
        let before: Vec<usize> = (0..7)
            .map(|s| idx.with_shard(s, |i| i.num_partitions()))
            .collect();
        let mut grown = example_trajectories();
        grown
            .push(
                tthr_trajectory::UserId(9),
                vec![TrajEntry::new(EDGE_F, 40, 6.0)],
            )
            .unwrap();
        let effect = idx.append_batch(&grown);
        assert_eq!(effect.appended, 1);
        assert_eq!(effect.touched, vec![idx.router().shard_of(EDGE_F)]);
        for (s, partitions_before) in before.iter().enumerate() {
            let want = partitions_before + usize::from(effect.touched.contains(&s));
            assert_eq!(idx.with_shard(s, |i| i.num_partitions()), want, "shard {s}");
        }
        // The appended traversal is served.
        let q = Spq::new(Path::new(vec![EDGE_F]), TimeInterval::fixed(0, 100));
        assert_eq!(idx.get_travel_times(&q).sorted(), vec![6.0, 6.0]);
    }

    #[test]
    fn trace_records_shard_routing_and_stats_count_appends() {
        let idx = sharded(7);
        let q = Spq::new(
            Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 100),
        );
        let mut scratch = crate::SearchScratch::new();
        let _ = idx.get_travel_times_with(&q, &mut scratch);
        let expected = idx.router().shard_of(EDGE_A);
        assert_eq!(scratch.trace.shard_queries, 1);
        assert_eq!(scratch.trace.shard_fanout(), 1);
        assert_eq!(scratch.trace.shard_mask, 1u64 << (expected % 64));

        // Fresh instance: stats start at zero, trajectories reflect
        // membership, and an append bumps only the touched shard.
        let stats = idx.shard_stats();
        assert_eq!(stats.len(), 7);
        for (s, st) in stats.iter().enumerate() {
            assert_eq!(st.appends, 0, "shard {s}");
            assert_eq!(st.trajectories as usize, idx.shard_members(s).len());
        }
        let mut grown = example_trajectories();
        grown
            .push(
                tthr_trajectory::UserId(9),
                vec![TrajEntry::new(EDGE_F, 40, 6.0)],
            )
            .unwrap();
        idx.append_batch(&grown);
        let touched = idx.router().shard_of(EDGE_F);
        for (s, st) in idx.shard_stats().iter().enumerate() {
            let want = u64::from(s == touched);
            assert_eq!(st.appends, want, "shard {s}");
            assert_eq!(st.appended_trajectories, want, "shard {s}");
            assert_eq!(st.trajectories as usize, idx.shard_members(s).len());
        }
    }

    #[test]
    fn append_matches_monolith_after_multi_shard_batch() {
        let mut mono = monolith();
        let idx = sharded(7);
        let mut grown = example_trajectories();
        grown
            .push(
                tthr_trajectory::UserId(8),
                vec![
                    TrajEntry::new(EDGE_A, 20, 3.0),
                    TrajEntry::new(EDGE_B, 23, 3.0),
                    TrajEntry::new(EDGE_E, 26, 5.0),
                ],
            )
            .unwrap();
        grown
            .push(
                tthr_trajectory::UserId(9),
                vec![TrajEntry::new(EDGE_F, 22, 7.0)],
            )
            .unwrap();
        assert_eq!(mono.append_batch(&grown), 2);
        let effect = idx.append_batch(&grown);
        assert_eq!(effect.appended, 2);
        assert!(effect.touched.len() >= 2, "batch crosses shards");
        assert_matches_monolith(&mono, &idx);
        assert_eq!(idx.num_trajectories(), 6);
    }

    #[test]
    fn concurrent_readers_see_atomic_shard_states_during_appends() {
        // 4 reader threads hammer one untouched-shard query and one
        // touched-shard query while the appender (holding the permit, as
        // the contract requires) applies 5 single-edge batches to F.
        let idx = std::sync::Arc::new(sharded(6));
        let qa = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 1000));
        let qf = Spq::new(Path::new(vec![EDGE_F]), TimeInterval::fixed(0, 1000));
        let stable = idx.get_travel_times(&qa).sorted();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let idx = std::sync::Arc::clone(&idx);
                let (qa, qf, stable) = (qa.clone(), qf.clone(), stable.clone());
                scope.spawn(move || {
                    for _ in 0..400 {
                        assert_eq!(idx.get_travel_times(&qa).sorted(), stable);
                        // F starts with one traversal and gains one per
                        // batch; any prefix generation is a legal answer.
                        let n = idx.get_travel_times(&qf).len();
                        assert!((1..=6).contains(&n), "torn read: {n} values");
                    }
                });
            }
            let idx = std::sync::Arc::clone(&idx);
            scope.spawn(move || {
                let mut grown = example_trajectories();
                for round in 0..5 {
                    grown
                        .push(
                            tthr_trajectory::UserId(9),
                            vec![TrajEntry::new(EDGE_F, 50 + round, 6.0)],
                        )
                        .unwrap();
                    let _permit = idx.append_permit();
                    assert_eq!(idx.append_batch(&grown).appended, 1);
                }
            });
        });
        assert_eq!(idx.get_travel_times(&qf).len(), 6);
    }

    /// Write isolation: `ingest` write-locks only the shards its batch
    /// touches, so while one shard's lock is held a trip confined to
    /// another shard answers, and a trip routed to the locked shard waits
    /// until the lock is dropped.
    #[test]
    fn untouched_shard_answers_while_another_is_write_locked() {
        use crate::{QueryEngine, QueryEngineConfig, TripQuery};
        use std::sync::mpsc;
        use std::time::Duration;

        let net = example_network();
        let idx = sharded(2);
        let engine = QueryEngine::new(&idx, &net, QueryEngineConfig::default());
        let trip = |edges| Spq::new(Path::new(edges), TimeInterval::fixed(0, 100));
        let answer = |t: &TripQuery| {
            let total = t.predicted_duration().to_bits();
            (t.stats, t.histogram.clone(), total)
        };
        let target = idx.router().shard_of(EDGE_E);
        let free = trip(vec![EDGE_C, EDGE_D]);
        let locked = trip(vec![EDGE_E]);
        for e in [EDGE_C, EDGE_D] {
            assert_ne!(idx.router().shard_of(e), target, "⟨C,D⟩ avoids E's shard");
        }
        let want_free = answer(&engine.trip_query(&free));
        let want_locked = answer(&engine.trip_query(&locked));

        // What `ingest` holds while it applies a batch to `target`.
        let guard = idx.shards[target].write().unwrap();
        let (engine, free, locked) = (&engine, &free, &locked);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || {
                let _ = tx.send(engine.trip_query(free));
            });
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a trip in an unlocked shard waits for another shard's writer");
            assert_eq!(answer(&got), want_free);

            let (tx, rx) = mpsc::channel();
            scope.spawn(move || {
                let _ = tx.send(engine.trip_query(locked));
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "a trip in the write-locked shard answered"
            );
            drop(guard);
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the trip answers once the writer is gone");
            assert_eq!(answer(&got), want_locked);
        });
    }

    #[test]
    fn snapshot_round_trip_preserves_answers_and_appends() {
        let idx = sharded(3);
        let bytes = idx.to_snapshot_bytes();
        let restored = ShardedSntIndex::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.num_shards(), 3);
        assert_eq!(restored.num_trajectories(), 4);
        assert_eq!(restored.router(), idx.router());
        assert_matches_monolith(&monolith(), &restored);

        // Both copies accept the same append and stay in agreement.
        let mut grown = example_trajectories();
        grown
            .push(
                tthr_trajectory::UserId(7),
                vec![TrajEntry::new(EDGE_A, 50, 3.0)],
            )
            .unwrap();
        assert_eq!(idx.append_batch(&grown).appended, 1);
        assert_eq!(restored.append_batch(&grown).appended, 1);
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 100));
        assert_eq!(
            idx.get_travel_times(&q).sorted(),
            restored.get_travel_times(&q).sorted()
        );
    }

    /// The one validator of a shard part, asked directly (the containers
    /// that carry parts to it: `tests/persistence_roundtrip.rs`).
    #[test]
    fn corrupt_member_lists_are_typed_errors() {
        let idx = sharded(1);
        let part = |members: Vec<u32>| {
            let bytes = idx.with_shard(0, |i| i.to_snapshot_bytes());
            let index = SntIndex::from_snapshot_bytes(&bytes).unwrap();
            Shard::new(index, members, 4, idx.router().num_edges()).map(|_| ())
        };
        part(vec![0, 1, 2, 3]).unwrap();
        for members in [vec![3, 2, 1, 0], vec![0, 1, 2, 4], vec![0, 1, 2]] {
            let err = part(members.clone()).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{members:?}");
        }
    }

    #[test]
    fn wal_batch_round_trips_with_shard_tag() {
        let idx = sharded(7);
        let mut grown = example_trajectories();
        grown
            .push(
                tthr_trajectory::UserId(3),
                vec![
                    TrajEntry::new(EDGE_A, 60, 3.0),
                    TrajEntry::new(EDGE_B, 63, 3.0),
                ],
            )
            .unwrap();
        let delta: Vec<Trajectory> = grown.iter().skip(4).cloned().collect();
        let record = ShardedWalBatch {
            touched: idx.router().batch_shards(&delta),
            batch: WalBatch {
                base: 4,
                trajectories: delta
                    .iter()
                    .map(|t| (t.user(), t.entries().to_vec()))
                    .collect(),
            },
        };
        assert!(!record.touched.is_empty());
        let mut w = ByteWriter::new();
        record.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = ShardedWalBatch::restore(&mut r).unwrap();
        r.expect_exhausted("sharded wal batch").unwrap();
        assert_eq!(restored, record);
    }

    #[test]
    fn single_shard_configuration_degenerates_to_the_monolith() {
        let idx = sharded(1);
        assert_eq!(idx.num_shards(), 1);
        assert_eq!(idx.shard_members(0).len(), 4);
        assert_matches_monolith(&monolith(), &idx);
    }

    #[test]
    #[should_panic(expected = "partition_days")]
    fn day_partitioned_config_is_rejected() {
        let _ = ShardedSntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig {
                partition_days: Some(1),
                ..SntConfig::default()
            },
            2,
        );
    }
}
