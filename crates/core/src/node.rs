//! Single-shard node state for the shard-per-process cluster tier.
//!
//! [`crate::ShardedSntIndex`] keeps all `K` shards in one process; the
//! cluster tier instead runs each shard as its own process (`tthr-node`)
//! behind the binary protocol of `tthr-rpc`, with a router process
//! scattering queries by the same [`ShardRouter`] first-edge table. This
//! module is the index-side half of that split: everything a node process
//! holds and must persist, with no sockets involved (the transport lives
//! in `tthr-server` / `tthr-client`).
//!
//! # Why a node can answer alone
//!
//! A [`ShardNodeState`] is exactly one shard of a [`ShardedSntIndex`]: the
//! shard's full [`SntIndex`], its ascending global-id member list, and the
//! cluster-wide routing table. The sharded exactness argument (see
//! [`ShardedSntIndex`]'s docs) is local per query — `get_travel_times`,
//! `count_matching`, and `estimate` each consult only the shard owning the
//! path's first edge — so a node answers those primitives byte-identically
//! to the in-process sharded backend without talking to any other node.
//! Only [`IndexBackend::full_interval`](crate::IndexBackend) needs global
//! state (the cluster-wide data span), which is why every append record
//! carries the post-batch global span and every node tracks it: a router
//! can rebuild its global view from any node's meta.
//!
//! # Append protocol
//!
//! The router assigns global ids and plans one [`NodeWalRecord`] per node
//! and batch: the record carries the batch stamp (`base` → `new_total`),
//! the post-batch global span, and this node's member subset (possibly
//! empty — the node then only advances its global counters). Application
//! is **idempotent** by base stamp: a record the node already absorbed is
//! skipped, a record from the future is a typed [`StoreError::WalGap`].
//! Node processes validate a record ([`ShardNodeState::prepare`]), write
//! it to their own WAL, and only then apply it
//! ([`ShardNodeState::commit`]); they replay the log over their last
//! snapshot on restart — the same recovery story as the monolithic
//! service, per shard.

use crate::persist::{get_trajectories, prepare_batch, put_trajectories};
use crate::sharded::{Shard, ShardRouter};
use crate::snt::{SntIndex, TravelTimes};
use crate::spq::Spq;
use crate::{CardinalityMode, LadderRequest, SearchScratch, ShardedSntIndex, TimeInterval};
use tthr_network::Timestamp;
use tthr_store::snapshot::{SectionId, SnapshotArchive, SnapshotBuilder};
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr_trajectory::{TrajEntry, Trajectory, UserId};

/// Header section of a node snapshot: shard id, routing table, member
/// list, global counters.
pub const SECTION_NODE_META: SectionId = SectionId(120);
/// The shard's complete monolithic index snapshot.
pub const SECTION_NODE_INDEX: SectionId = SectionId(121);

/// Most levels a relaxation ladder may carry across the wire: far above
/// the paper's `|A| + 1 = 7`, small enough that a hostile list cannot
/// buy an unbounded scan.
pub const MAX_LADDER_LEVELS: usize = 32;

/// Most ladders one `LadderBatch` may carry — a protocol constant, not a
/// setting: a trip's relaxation round rarely holds more (a larger one is
/// sent in chunks), and it bounds what one request can make a node scan
/// under a single read guard.
pub const MAX_LADDER_BATCH: usize = 64;

/// One cluster append record: the slice of a batch one node must index,
/// stamped with the global trajectory counters that make replay
/// idempotent. The router sends the same `base`/`new_total`/span to every
/// node; only `members`/`trajectories` differ per node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeWalRecord {
    /// Global trajectory count before the batch.
    pub base: u64,
    /// Global trajectory count after the batch.
    pub new_total: u64,
    /// Cluster-wide `data_min` after the batch.
    pub span_min: Timestamp,
    /// Cluster-wide `data_max` after the batch.
    pub span_max: Timestamp,
    /// Ascending global ids of the batch members this node indexes.
    pub members: Vec<u32>,
    /// The member trajectories, aligned with `members`.
    pub trajectories: Vec<(UserId, Vec<TrajEntry>)>,
}

/// Wire form: the four counters, the member ids, then the member
/// trajectories in the payload layout every WAL record shares (the
/// [`crate::WalBatch`] one).
impl Persist for NodeWalRecord {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.base);
        w.put_u64(self.new_total);
        w.put_i64(self.span_min);
        w.put_i64(self.span_max);
        w.put_seq(&self.members);
        put_trajectories(w, self.trajectories.iter().map(|(u, e)| (*u, e.as_slice())));
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(NodeWalRecord {
            base: r.get_u64()?,
            new_total: r.get_u64()?,
            span_min: r.get_i64()?,
            span_max: r.get_i64()?,
            members: r.get_seq()?,
            trajectories: get_trajectories(r)?,
        })
    }
}

/// The `(min start time, max entry time)` span of a raw batch, or `None`
/// for an empty batch — the delta the router folds into its running
/// global span before stamping [`NodeWalRecord::span_min`]/`span_max`.
/// Matches the monolith's accounting: `data_min` tracks trajectory start
/// times, `data_max` the *entry* time of each trajectory's last segment.
pub(crate) fn batch_span(
    trajectories: &[(UserId, Vec<TrajEntry>)],
) -> Option<(Timestamp, Timestamp)> {
    let mut span: Option<(Timestamp, Timestamp)> = None;
    for (_, entries) in trajectories {
        let (first, last) = match (entries.first(), entries.last()) {
            (Some(f), Some(l)) => (f.enter_time, l.enter_time),
            _ => continue,
        };
        span = Some(match span {
            None => (first, last),
            Some((lo, hi)) => (lo.min(first), hi.max(last)),
        });
    }
    span
}

/// Plans the per-node append records for one batch: entry `s` of the
/// result is what shard `s`'s node must apply. Every node gets a record
/// (so its global counters advance even when no member routes to it);
/// only touched nodes carry member subsets.
///
/// `base` must be the cluster's current global trajectory count and
/// `(span_min, span_max)` its current data span (use `(0, 0)` when the
/// cluster is empty, mirroring the empty-build convention). The batch is
/// validated here, before global ids are assigned, and again by every
/// node's [`ShardNodeState::prepare`].
pub fn plan_node_records(
    router: &ShardRouter,
    base: u64,
    span_min: Timestamp,
    span_max: Timestamp,
    trajectories: &[(UserId, Vec<TrajEntry>)],
) -> Result<Vec<NodeWalRecord>, StoreError> {
    prepare_batch(0, router.num_edges(), trajectories)?;
    let new_total = base + trajectories.len() as u64;
    let (span_min, span_max) = match batch_span(trajectories) {
        Some((lo, hi)) if base == 0 => (lo, hi),
        Some((lo, hi)) => (span_min.min(lo), span_max.max(hi)),
        None => (span_min, span_max),
    };
    let k = router.num_shards();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut subsets: Vec<Vec<(UserId, Vec<TrajEntry>)>> = vec![Vec::new(); k];
    for (i, (user, entries)) in trajectories.iter().enumerate() {
        let global = base as u32 + i as u32;
        for &s in &router.shards_touched(entries) {
            members[s as usize].push(global);
            subsets[s as usize].push((*user, entries.clone()));
        }
    }
    Ok(members
        .into_iter()
        .zip(subsets)
        .map(|(members, trajectories)| NodeWalRecord {
            base,
            new_total,
            span_min,
            span_max,
            members,
            trajectories,
        })
        .collect())
}

/// One shard's complete node state: the shard index, its member list, the
/// cluster routing table, and the global counters a router needs to
/// reconstruct its view. See the module docs for the exactness and append
/// contracts.
pub struct ShardNodeState {
    shard: u16,
    router: ShardRouter,
    /// The shard itself: index + ascending member list.
    state: Shard,
    /// Cluster-wide trajectory count this node has absorbed records up to.
    num_global: u64,
    /// Cluster-wide data span (not this shard's!).
    span_min: Timestamp,
    span_max: Timestamp,
}

/// An append record validated against one node's state by
/// [`ShardNodeState::prepare`]: applying it cannot fail any more, so the
/// node logs it between the two steps.
pub struct PreparedRecord<'r> {
    record: &'r NodeWalRecord,
    trajs: Vec<Trajectory>,
}

impl ShardNodeState {
    /// Extracts shard `shard` of an in-process sharded index as a
    /// standalone node state — the cluster bootstrap path: build (or
    /// restore) a [`ShardedSntIndex`] once, export each shard, hand each
    /// node its own state.
    ///
    /// # Panics
    /// Panics if `shard >= sharded.num_shards()`.
    pub fn export_from(sharded: &ShardedSntIndex, shard: usize) -> Self {
        assert!(shard < sharded.num_shards(), "shard {shard} out of range");
        // Round-trip through the shard's snapshot: the only public way to
        // obtain an owned SntIndex clone, and exactly what a node restores
        // from disk anyway.
        let bytes = sharded.with_shard(shard, |i| i.to_snapshot_bytes());
        let index = SntIndex::from_snapshot_bytes(&bytes)
            .expect("a just-written shard snapshot must restore");
        ShardNodeState {
            shard: shard as u16,
            router: sharded.router().clone(),
            state: Shard {
                index,
                members: sharded.shard_members(shard),
            },
            num_global: sharded.num_trajectories() as u64,
            span_min: sharded.data_min(),
            span_max: sharded.data_max(),
        }
    }

    /// The shard this node serves.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Number of shards in the cluster (`K`).
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// The cluster routing table (identical on every node).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Ascending global ids of this shard's members.
    pub fn members(&self) -> &[u32] {
        &self.state.members
    }

    /// Cluster-wide trajectory count this node is caught up to.
    pub fn num_global(&self) -> u64 {
        self.num_global
    }

    /// Cluster-wide `data_min`.
    pub fn span_min(&self) -> Timestamp {
        self.span_min
    }

    /// Cluster-wide `data_max`.
    pub fn span_max(&self) -> Timestamp {
        self.span_max
    }

    /// The shard's index (for stats / introspection).
    pub fn index(&self) -> &SntIndex {
        &self.state.index
    }

    /// Whether an SPQ names only edges of the routed network and routes
    /// to this shard — queries that do not are malformed frames or router
    /// bugs and answered with a typed error, never a panic or a wrong
    /// answer.
    fn check_route(&self, spq: &Spq) -> Result<(), StoreError> {
        spq.check_edges(self.router.num_edges())?;
        let owner = self.router.shard_of(spq.path.first());
        if owner != self.shard as usize {
            return Err(StoreError::corrupt(format!(
                "query for edge {} routes to shard {owner}, this node serves shard {}",
                spq.path.first().0,
                self.shard
            )));
        }
        Ok(())
    }

    /// `getTravelTimes` for a query owned by this shard — byte-identical
    /// to [`ShardedSntIndex::get_travel_times`] on the same history.
    pub fn get_travel_times(&self, spq: &Spq) -> Result<TravelTimes, StoreError> {
        self.get_travel_times_with(spq, &mut SearchScratch::new())
    }

    /// [`ShardNodeState::get_travel_times`] through a caller-owned
    /// [`SearchScratch`] — a serving loop keeps one per connection, so
    /// the sub-path searches of one trip's RPCs share backward-search
    /// states exactly as they do inside an in-process engine.
    pub fn get_travel_times_with(
        &self,
        spq: &Spq,
        scratch: &mut SearchScratch,
    ) -> Result<TravelTimes, StoreError> {
        self.check_route(spq)?;
        Ok(self
            .state
            .query(spq, |i, q| i.get_travel_times_with(q, scratch)))
    }

    /// One relaxation round's ladders for this shard, answered in request
    /// order — each byte-identical to
    /// `ShardedSntIndex::travel_times_ladder_with`. The caller holds one
    /// borrow of the state throughout, so the answers are a consistent
    /// cut of the shard. The batch arrives off the wire: unless it holds
    /// 1..=[`MAX_LADDER_BATCH`] items, each an owned query with a
    /// well-formed ladder of at most [`MAX_LADDER_LEVELS`] windows
    /// starting at the query's own, the **whole** batch is a typed error
    /// before anything is scanned — never a partial reply, a panic or an
    /// unbounded scan.
    pub fn travel_times_ladders_with(
        &self,
        items: &[LadderRequest],
        scratch: &mut SearchScratch,
    ) -> Result<Vec<(usize, TravelTimes)>, StoreError> {
        if items.is_empty() || items.len() > MAX_LADDER_BATCH {
            return Err(StoreError::corrupt(format!(
                "a ladder batch holds 1..={MAX_LADDER_BATCH} ladders, not {}",
                items.len()
            )));
        }
        for (spq, levels) in items {
            self.check_route(spq)?;
            if levels.len() > MAX_LADDER_LEVELS
                || levels.first() != Some(&spq.interval)
                || !TimeInterval::is_ladder(levels)
            {
                return Err(StoreError::corrupt(format!(
                    "not a relaxation ladder of 1..={MAX_LADDER_LEVELS} nested windows \
                     starting at the query's own: {levels:?}"
                )));
            }
        }
        Ok(items
            .iter()
            .map(|(spq, levels)| {
                self.state
                    .query(spq, |i, q| i.travel_times_ladder_with(q, levels, scratch))
            })
            .collect())
    }

    /// Exact predicate-matching traversal count with a fresh scratch: the
    /// tests' convenience over [`ShardNodeState::count_matching_with`].
    #[cfg(test)]
    pub(crate) fn count_matching(&self, spq: &Spq, cap: u32) -> Result<usize, StoreError> {
        self.count_matching_with(spq, cap, &mut SearchScratch::new())
    }

    /// Exact predicate-matching traversal count for an owned query,
    /// through a caller-owned scratch.
    pub fn count_matching_with(
        &self,
        spq: &Spq,
        cap: u32,
        scratch: &mut SearchScratch,
    ) -> Result<usize, StoreError> {
        self.check_route(spq)?;
        Ok(self
            .state
            .query(spq, |i, q| i.count_matching_with(q, cap, scratch)))
    }

    /// Cardinality estimate for an owned query.
    pub fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> Result<f64, StoreError> {
        self.check_route(spq)?;
        Ok(self.state.query(spq, |i, q| {
            crate::cardinality::estimate_cardinality(i, q, mode)
        }))
    }

    /// Validates one append record against this state (see the module
    /// docs):
    ///
    /// * `new_total ≤ num_global` — already absorbed, `Ok(None)`.
    /// * `base ≠ num_global` — a missing predecessor,
    ///   [`StoreError::WalGap`].
    /// * a malformed member subset — a typed error; the node is untouched.
    /// * otherwise the record with its member subset materialized, ready
    ///   for an infallible [`ShardNodeState::commit`].
    pub fn prepare<'r>(
        &self,
        record: &'r NodeWalRecord,
    ) -> Result<Option<PreparedRecord<'r>>, StoreError> {
        if record.new_total <= self.num_global {
            return Ok(None);
        }
        if record.base != self.num_global {
            return Err(StoreError::WalGap {
                expected: self.num_global,
                found: record.base,
            });
        }
        if record.members.len() != record.trajectories.len()
            || record.members.len() as u64 > record.new_total - record.base
        {
            return Err(StoreError::corrupt(format!(
                "append record shape: {} members, {} trajectories, stamp {}→{}",
                record.members.len(),
                record.trajectories.len(),
                record.base,
                record.new_total
            )));
        }
        let in_range = |&g: &u32| (g as u64) >= record.base && (g as u64) < record.new_total;
        if !record.members.windows(2).all(|w| w[0] < w[1]) || !record.members.iter().all(in_range) {
            return Err(StoreError::corrupt(
                "append record member ids must be ascending within the batch stamp",
            ));
        }
        let local_from = self.state.index.num_trajectories() as u32;
        let trajs = prepare_batch(local_from, self.router.num_edges(), &record.trajectories)?;
        Ok(Some(PreparedRecord { record, trajs }))
    }

    /// Ingests a record [`ShardNodeState::prepare`] validated against
    /// this very state, exactly like the touched shard of an in-process
    /// [`ShardedSntIndex::ingest`] — sealed as one temporal partition, or
    /// absorbed into the shard index's hot tail when `seal` is off (a
    /// later [`ShardNodeState::compact`] seals it; answers are
    /// byte-identical throughout) — and advances the global counters (an
    /// empty subset only does that). Returns the number of trajectories
    /// this shard indexed.
    pub fn commit(&mut self, prepared: PreparedRecord<'_>, seal: bool) -> usize {
        let PreparedRecord { record, trajs } = prepared;
        debug_assert_eq!(record.base, self.num_global, "prepared against this state");
        let applied = trajs.len();
        if applied > 0 {
            self.state.ingest(&record.members, trajs, seal);
        }
        self.num_global = record.new_total;
        self.span_min = self.span_min.min(record.span_min);
        self.span_max = self.span_max.max(record.span_max);
        applied
    }

    /// Seals every absorbed hot-tail batch into the shard index's
    /// immutable levels (and applies a retention horizon, if given) —
    /// the node-tier compaction step. Dropped partitions never shrink
    /// the member list: trajectory ids are dense and never reused, so
    /// the `members.len() == index.num_trajectories()` snapshot
    /// invariant holds across retention.
    pub fn compact(&mut self, retention_horizon: Option<Timestamp>) -> crate::CompactionOutcome {
        self.state.index.compact(retention_horizon)
    }

    /// The shard index's hot-tail backlog.
    pub fn hot_stats(&self) -> crate::HotStats {
        self.state.index.hot_stats()
    }

    /// Serializes the node state into a snapshot container
    /// ([`SECTION_NODE_META`] + [`SECTION_NODE_INDEX`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut builder = SnapshotBuilder::new();
        let mut meta = ByteWriter::new();
        meta.put_u16(self.shard);
        meta.put_u64(self.num_global);
        meta.put_i64(self.span_min);
        meta.put_i64(self.span_max);
        self.router.persist(&mut meta);
        meta.put_seq(&self.state.members);
        builder.add_section(SECTION_NODE_META, meta.into_bytes());
        builder.add_section(SECTION_NODE_INDEX, self.state.index.to_snapshot_bytes());
        builder.into_bytes()
    }

    /// Restores a node state, verifying section CRCs plus the node
    /// invariants: shard id within the routing table and the shard
    /// invariants every tier shares (ascending members within the global
    /// count, one member per indexed trajectory, index and routing table
    /// over the same edges).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let archive = SnapshotArchive::from_bytes(bytes)?;
        let mut meta = archive.section(SECTION_NODE_META)?;
        let shard = meta.get_u16()?;
        let num_global = meta.get_u64()?;
        let span_min = meta.get_i64()?;
        let span_max = meta.get_i64()?;
        let router = ShardRouter::restore(&mut meta)?;
        let members: Vec<u32> = meta.get_seq()?;
        meta.expect_exhausted("node meta section")?;
        if (shard as usize) >= router.num_shards() {
            return Err(StoreError::corrupt(format!(
                "node claims shard {shard} of {}",
                router.num_shards()
            )));
        }
        let mut idx = archive.section(SECTION_NODE_INDEX)?;
        let index = SntIndex::from_snapshot_bytes(idx.get_bytes(idx.remaining())?)?;
        let state = Shard::new(index, members, num_global, router.num_edges())?;
        Ok(ShardNodeState {
            shard,
            router,
            state,
            num_global,
            span_min,
            span_max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SntConfig, TimeInterval};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E, EDGE_F};
    use tthr_network::Path;
    use tthr_trajectory::examples::example_trajectories;

    fn sharded(k: usize) -> ShardedSntIndex {
        ShardedSntIndex::build(
            &example_network(),
            &example_trajectories(),
            SntConfig::default(),
            k,
        )
    }

    fn nodes(sharded: &ShardedSntIndex) -> Vec<ShardNodeState> {
        (0..sharded.num_shards())
            .map(|s| ShardNodeState::export_from(sharded, s))
            .collect()
    }

    /// `prepare` + `commit`, as a node with nothing to log in between.
    fn apply(
        node: &mut ShardNodeState,
        record: &NodeWalRecord,
        seal: bool,
    ) -> Result<usize, StoreError> {
        Ok(match node.prepare(record)? {
            Some(prepared) => node.commit(prepared, seal),
            None => 0,
        })
    }

    fn workload() -> Vec<Spq> {
        vec![
            Spq::new(
                Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
                TimeInterval::fixed(0, 15),
            )
            .with_beta(2),
            Spq::new(Path::new(vec![EDGE_E]), TimeInterval::periodic(0, 900)).with_beta(3),
            Spq::new(Path::new(vec![EDGE_B, EDGE_E]), TimeInterval::fixed(0, 100))
                .with_user(UserId(1)),
            Spq::new(
                Path::new(vec![EDGE_A, EDGE_B, EDGE_E]),
                TimeInterval::fixed(0, 100),
            )
            .without_trajectory(tthr_trajectory::TrajId(0)),
        ]
    }

    fn assert_nodes_match(sharded: &ShardedSntIndex, nodes: &[ShardNodeState]) {
        for spq in workload() {
            let owner = sharded.router().shard_of(spq.path.first());
            let a = sharded.get_travel_times(&spq);
            let b = nodes[owner].get_travel_times(&spq).unwrap();
            let ab: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{spq:?}");
            assert_eq!(a.fallback, b.fallback, "{spq:?}");
            assert_eq!(
                sharded.count_matching(&spq, u32::MAX),
                nodes[owner].count_matching(&spq, u32::MAX).unwrap(),
                "{spq:?}"
            );
            for mode in CardinalityMode::ALL {
                assert_eq!(
                    crate::IndexBackend::estimate(sharded, &spq, mode).to_bits(),
                    nodes[owner].estimate(&spq, mode).unwrap().to_bits(),
                    "{spq:?} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn exported_nodes_answer_like_the_sharded_backend() {
        for k in [1usize, 2, 7] {
            let idx = sharded(k);
            let nodes = nodes(&idx);
            assert_eq!(nodes.len(), k);
            for (s, node) in nodes.iter().enumerate() {
                assert_eq!(node.shard() as usize, s);
                assert_eq!(node.num_global(), idx.num_trajectories() as u64);
                assert_eq!(node.span_min(), idx.data_min());
                assert_eq!(node.span_max(), idx.data_max());
                assert_eq!(node.members(), idx.shard_members(s).as_slice());
            }
            assert_nodes_match(&idx, &nodes);
        }
    }

    #[test]
    fn misrouted_queries_are_typed_errors() {
        let idx = sharded(2);
        let nodes = nodes(&idx);
        let q = Spq::new(Path::new(vec![EDGE_A]), TimeInterval::fixed(0, 100));
        let owner = idx.router().shard_of(EDGE_A);
        let wrong = 1 - owner;
        assert!(nodes[owner].get_travel_times(&q).is_ok());
        assert!(matches!(
            nodes[wrong].get_travel_times(&q),
            Err(StoreError::Corrupt { .. })
        ));
    }

    /// The frame codec admits any `u32` edge id; one past the routing
    /// table — first or later in the path — is a typed error on every
    /// request kind, not an index panic.
    #[test]
    fn out_of_range_edges_are_typed_errors() {
        let idx = sharded(2);
        let nodes = nodes(&idx);
        let node = &nodes[idx.router().shard_of(EDGE_A)];
        let wild = tthr_network::EdgeId(9_999);
        for edges in [vec![wild], vec![EDGE_A, wild]] {
            let q = Spq::new(Path::new(edges), TimeInterval::fixed(0, 100));
            let ladder = [(q.clone(), vec![q.interval])];
            let scratch = &mut SearchScratch::new();
            for outcome in [
                node.get_travel_times(&q).map(drop),
                node.travel_times_ladders_with(&ladder, scratch).map(drop),
                node.count_matching(&q, u32::MAX).map(drop),
                node.estimate(&q, CardinalityMode::Isa).map(drop),
            ] {
                assert!(matches!(outcome, Err(StoreError::Corrupt { .. })), "{q:?}");
            }
        }
    }

    /// Both flavours of the one write primitive: sealed and absorbed
    /// records land every node exactly where the in-process sharded
    /// `ingest` lands its shard.
    #[test]
    fn planned_records_apply_identically_to_an_in_process_append() {
        for seal in [true, false] {
            let idx = sharded(2);
            let mut nodes = nodes(&idx);
            let batch: Vec<(UserId, Vec<TrajEntry>)> = vec![
                (
                    UserId(8),
                    vec![
                        TrajEntry::new(EDGE_A, 20, 3.0),
                        TrajEntry::new(EDGE_B, 23, 3.0),
                        TrajEntry::new(EDGE_E, 26, 5.0),
                    ],
                ),
                (UserId(9), vec![TrajEntry::new(EDGE_F, 22, 7.0)]),
            ];
            let records = plan_node_records(
                idx.router(),
                idx.num_trajectories() as u64,
                idx.data_min(),
                idx.data_max(),
                &batch,
            )
            .unwrap();
            assert_eq!(records.len(), 2);
            let from = idx.num_trajectories() as u32;
            idx.ingest(
                prepare_batch(from, idx.router().num_edges(), &batch).unwrap(),
                seal,
            );
            for (node, record) in nodes.iter_mut().zip(&records) {
                apply(node, record, seal).unwrap();
                assert_eq!(node.hot_stats().batches > 0, !seal, "seal={seal}");
                assert_eq!(node.num_global(), idx.num_trajectories() as u64);
                assert_eq!(node.span_min(), idx.data_min());
                assert_eq!(node.span_max(), idx.data_max());
                assert_eq!(
                    node.members(),
                    idx.shard_members(node.shard() as usize).as_slice()
                );
            }
            assert_nodes_match(&idx, &nodes);
        }
    }

    #[test]
    fn apply_is_idempotent_and_gaps_are_typed() {
        let idx = sharded(2);
        let mut node = ShardNodeState::export_from(&idx, 0);
        let batch = vec![(UserId(7), vec![TrajEntry::new(EDGE_A, 50, 3.0)])];
        let records = plan_node_records(idx.router(), node.num_global(), 0, 21, &batch).unwrap();
        let record = records[node.shard() as usize].clone();
        let first = apply(&mut node, &record, true).unwrap();
        // Replaying the same record is a no-op.
        assert_eq!(apply(&mut node, &record, true).unwrap(), 0);
        let members_after = node.members().to_vec();
        // A record from the future is a gap naming both stamps.
        let future = NodeWalRecord {
            base: node.num_global() + 3,
            new_total: node.num_global() + 4,
            ..record.clone()
        };
        match apply(&mut node, &future, true) {
            Err(StoreError::WalGap { expected, found }) => {
                assert_eq!(expected, node.num_global());
                assert_eq!(found, future.base);
            }
            other => panic!("expected WalGap, got {other:?}"),
        }
        assert_eq!(node.members(), members_after.as_slice());
        let _ = first;
    }

    #[test]
    fn malformed_records_leave_the_node_untouched() {
        let idx = sharded(1);
        let mut node = ShardNodeState::export_from(&idx, 0);
        let before_members = node.members().to_vec();
        let before_global = node.num_global();
        // Member list longer than the batch stamp allows.
        let bad = NodeWalRecord {
            base: before_global,
            new_total: before_global + 1,
            span_min: 0,
            span_max: 100,
            members: vec![before_global as u32, before_global as u32 + 1],
            trajectories: vec![
                (UserId(1), vec![TrajEntry::new(EDGE_A, 90, 1.0)]),
                (UserId(2), vec![TrajEntry::new(EDGE_B, 91, 1.0)]),
            ],
        };
        assert!(matches!(
            apply(&mut node, &bad, true),
            Err(StoreError::Corrupt { .. })
        ));
        // Invalid trajectory payload (empty entry list).
        let bad = NodeWalRecord {
            base: before_global,
            new_total: before_global + 1,
            span_min: 0,
            span_max: 100,
            members: vec![before_global as u32],
            trajectories: vec![(UserId(1), vec![])],
        };
        assert!(matches!(
            apply(&mut node, &bad, true),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(node.num_global(), before_global);
        assert_eq!(node.members(), before_members.as_slice());
    }

    #[test]
    fn node_snapshot_round_trips_and_keeps_answering() {
        let idx = sharded(2);
        for s in 0..2 {
            let node = ShardNodeState::export_from(&idx, s);
            let bytes = node.to_snapshot_bytes();
            let restored = ShardNodeState::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(restored.shard(), node.shard());
            assert_eq!(restored.num_global(), node.num_global());
            assert_eq!(restored.members(), node.members());
            assert_eq!(restored.router(), node.router());
        }
        let nodes: Vec<ShardNodeState> = (0..2)
            .map(|s| {
                ShardNodeState::from_snapshot_bytes(
                    &ShardNodeState::export_from(&idx, s).to_snapshot_bytes(),
                )
                .unwrap()
            })
            .collect();
        assert_nodes_match(&idx, &nodes);
    }

    /// Any flipped payload bit trips a section CRC. (Parts that pass
    /// their CRCs but break the shard invariants: see the table in
    /// `tests/persistence_roundtrip.rs`, driven through this container
    /// and the sharded one.)
    #[test]
    fn corrupt_node_snapshots_are_typed_errors() {
        let node = ShardNodeState::export_from(&sharded(2), 0);
        let mut corrupt = node.to_snapshot_bytes();
        *corrupt.last_mut().unwrap() ^= 1;
        assert!(matches!(
            ShardNodeState::from_snapshot_bytes(&corrupt),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wal_record_round_trips() {
        let record = NodeWalRecord {
            base: 4,
            new_total: 6,
            span_min: -3,
            span_max: 99,
            members: vec![4, 5],
            trajectories: vec![
                (UserId(8), vec![TrajEntry::new(EDGE_A, 20, 3.0)]),
                (UserId(9), vec![TrajEntry::new(EDGE_F, 22, 7.0)]),
            ],
        };
        let mut w = ByteWriter::new();
        record.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let restored = NodeWalRecord::restore(&mut r).unwrap();
        r.expect_exhausted("node wal record").unwrap();
        assert_eq!(restored, record);
    }
}
