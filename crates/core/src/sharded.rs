//! The cluster's partitioner: a static edge → shard routing table, and
//! the `K`-shard build a cluster boots its nodes from.
//!
//! The cluster tier (`tthr-node` + `tthr-router`) partitions the *road
//! network* into `K` edge groups — strips of the map, cut by the source
//! vertex's x coordinate — and runs one `SntIndex` per group, over the
//! trajectories that touch the group's edges, in its own node process
//! ([`crate::ShardNodeState`]). This module holds the pieces both sides
//! share: the [`ShardRouter`] table, the [`Shard`] (an index plus its
//! global-id member list), and [`ShardedSntIndex`], the immutable
//! `K`-shard build a deployment exports its node states from
//! ([`crate::ShardNodeState::export_from`]).
//!
//! # Why a shard's suffixes are enough
//!
//! A shard `s` has as members the trajectories that traverse at least
//! one edge of `s`, and of each member it keeps only the **suffix** from
//! the member's first position on an edge `s` owns: those leaves, with
//! the whole trajectory's `seq` and aggregates (prefix sums from its
//! first entry), and an FM text over the suffixes. Every index operation
//! whose pattern starts at edge `e` is routed to `shard(e)`. A
//! trajectory matching such a query traverses the path strictly, so it
//! traverses `e` — it is a member of `shard(e)` — and every position
//! where it does lies at or after its first owned position: the whole
//! occurrence of the path is inside the kept suffix, both the leaf that
//! `buildMap` finds on the first edge and the leaf `probeMap` finds on
//! the last one, and the suffix text holds the occurrence exactly as the
//! whole trajectory's text does. So `e`'s tree holds every traversal of
//! `e` the monolith holds, and the ISA count of a pattern starting at `e`
//! is the monolith's. Shard membership preserves the global trajectory
//! order, and temporal trees break timestamp ties by insertion order, so
//! scans return the same leaves in the same order as the monolith, with
//! the same `seq` and aggregates: answers are **byte-identical**,
//! including β-capped prefixes, fallback estimates, counting queries,
//! the census bound and the cardinality estimator (which reads only the
//! pattern's ISA counts and the first edge's ToD rows and leaf counts).
//! Appends keep the rule: a node trims the whole trajectories of an
//! append record as it applies them (hot tail included), and derives the
//! same starts again when it re-absorbs a snapshot's hot batches.
//! The node tests pin this for K ∈ {1, 2, 7} against the monolith, fresh,
//! after planned appends, across a hot-tail seal and a snapshot round
//! trip, with a brute-force oracle for every kept leaf
//! (`Shard::assert_keeps_suffixes`); `tests/equivalence.rs` pins it for
//! the running cluster.
//!
//! The cost is bounded duplication: a trajectory crossing `m` shards is
//! indexed `m` times (the partition-by-fingerprint trade-off of Chapuis
//! et al.), each time from its first position in the shard. Measured on
//! the benchmark's medium world (39 571 trajectories, 1.80 M traversals),
//! as leaves stored across the `K` shards per traversal; "whole" keeps
//! every member in full, "zone-first" is the partitioner this one
//! replaced (edges sorted by zone class before x), and the shipped
//! configuration is x strips with suffixes:
//!
//! | K | partitioner | whole | suffix | one-shard trajectories |
//! |---|-------------|-------|--------|------------------------|
//! | 2 | zone-first  | 1.825 | 1.590  | 45.8 % |
//! | 2 | x strips    | 1.714 | 1.347  | 61.6 % |
//! | 4 | zone-first  | 3.120 | 2.341  | 29.2 % |
//! | 4 | x strips    | 2.774 | 1.875  | 42.7 % |
//! | 7 | zone-first  | 4.735 | 3.174  | 24.0 % |
//! | 7 | x strips    | 4.149 | 2.571  | 28.5 % |
//!
//! `trip_stream_takes_one_rpc_per_round_and_shard` (an ignored test in
//! `tests/equivalence.rs` that CI runs) re-counts the K = 2 cell and
//! holds it to ≤ 1.40.
//!
//! # Temporal-partitioning caveat
//!
//! [`ShardedSntIndex::build`] requires `config.partition_days == None`
//! (the paper's `FULL` configuration, the default): per-shard day
//! bucketing would anchor at each shard's own `data_min`, shifting bucket
//! boundaries relative to the monolith and with them the tie order of
//! equal-timestamp scans. Appends still create one temporal partition per
//! batch — identically in the monolith and in every touched node.

use crate::interval::TimeInterval;
use crate::snt::{SntConfig, SntIndex, TravelTimes};
use crate::spq::Spq;
use crate::{CardinalityMode, IndexBackend, TravelTimeProvider};
use std::borrow::Cow;
use tthr_network::{EdgeId, RoadNetwork, Timestamp};
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};
use tthr_trajectory::{TrajEntry, TrajId, Trajectory, TrajectorySet};

/// A static edge → shard assignment over a road network.
///
/// Built by sorting edges by `(x, y, id)` of their source vertex and
/// chunking the order into `K` near-equal contiguous groups: each shard is
/// a strip of the map, so trajectories — which are spatially local — cross
/// few shards (the module docs measure how few), and shard sizes are
/// balanced to ±1 edge.
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
            (p.x, p.y, e.0)
        };
        order.sort_by(|&a, &b| {
            let (xa, ya, ia) = key(a);
            let (xb, yb, ib) = key(b);
            xa.total_cmp(&xb).then(ya.total_cmp(&yb)).then(ia.cmp(&ib))
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

    /// Each shard a sequence of entries crosses, ascending, with the first
    /// position on an edge it owns — the shards that must index a
    /// trajectory traversing them, and where each one's leaves of it
    /// start (see the module docs): the sharded build and the cluster's
    /// per-node append plans (see [`crate::node`]) partition with
    /// exactly this. An edge outside the table belongs to no shard.
    pub(crate) fn first_owned(&self, entries: &[TrajEntry]) -> Vec<(u16, u32)> {
        let mut firsts: Vec<(u16, u32)> = Vec::new();
        for (k, en) in entries.iter().enumerate() {
            let Some(&s) = self.shard_of_edge.get(en.edge.index()) else {
                continue;
            };
            if firsts.iter().all(|&(t, _)| t != s) {
                firsts.push((s, k as u32));
            }
        }
        firsts.sort_unstable();
        firsts
    }

    /// Where shard `shard`'s leaves of each trajectory start
    /// ([`ShardRouter::first_owned`]). A trajectory that never enters the
    /// shard has no place in it: a typed error, never a panic.
    pub(crate) fn suffix_starts(
        &self,
        shard: u16,
        trajs: &[Trajectory],
    ) -> Result<Vec<u32>, StoreError> {
        trajs
            .iter()
            .map(|tr| {
                let firsts = self.first_owned(tr.entries());
                let hit = firsts.iter().find(|&&(s, _)| s == shard);
                hit.map(|&(_, start)| start).ok_or_else(|| {
                    StoreError::corrupt(format!(
                        "a trajectory for shard {shard} traverses none of its edges"
                    ))
                })
            })
            .collect()
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

/// One shard — the unit both [`ShardedSntIndex`] (`K` of them) and
/// [`crate::ShardNodeState`] (one, plus the cluster's global counters) are
/// made of: the index and its member list, kept together so a reader
/// always sees the exclusion-id translation that matches the index
/// content.
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
    /// member, and `starts[i]` its first owned position
    /// ([`ShardRouter::suffix_starts`]).
    pub(crate) fn ingest(
        &mut self,
        globals: &[u32],
        trajs: Vec<Trajectory>,
        starts: Vec<u32>,
        seal: bool,
    ) {
        debug_assert_eq!(globals.len(), trajs.len());
        self.members.extend_from_slice(globals);
        self.index.ingest_suffixes(trajs, starts, seal);
    }
}

#[cfg(test)]
impl Shard {
    /// Test oracle for the suffix rule, by brute force over the whole
    /// history (`history[g]` = the entries of global trajectory `g`):
    /// the shard's members are the trajectories crossing `shard`; its
    /// leaves, sealed and hot, are exactly their traversals from each
    /// one's first owned position on, and the sealed ones are
    /// `total_entries`; each leaf carries the monolith leaf's aggregate
    /// for the same `(traj, seq)`, bit for bit.
    pub(crate) fn assert_keeps_suffixes(
        &self,
        shard: u16,
        router: &ShardRouter,
        history: &[Vec<TrajEntry>],
        mono: &SntIndex,
    ) {
        let mut members = Vec::new();
        let mut want = Vec::new();
        for (g, entries) in history.iter().enumerate() {
            let firsts = router.first_owned(entries);
            let Some(&(_, start)) = firsts.iter().find(|&&(s, _)| s == shard) else {
                continue;
            };
            members.push(g as u32);
            for (k, en) in entries.iter().enumerate().skip(start as usize) {
                want.push((g as u32, k as u32, en.edge.index(), en.enter_time));
            }
        }
        assert_eq!(self.members, members, "shard {shard} members");
        let aggregates: std::collections::HashMap<(u32, u32), u64> = mono
            .all_leaves()
            .into_iter()
            .map(|(_, l, _)| ((l.traj, l.seq), l.aggregate.to_bits()))
            .collect();
        let mut got = Vec::new();
        let mut sealed = 0;
        for (edge, leaf, hot) in self.index.all_leaves() {
            let g = self.members[leaf.traj as usize];
            assert_eq!(
                leaf.aggregate.to_bits(),
                aggregates[&(g, leaf.seq)],
                "shard {shard}: aggregate of trajectory {g} at seq {}",
                leaf.seq
            );
            sealed += usize::from(!hot);
            got.push((g, leaf.seq, edge, leaf.time));
        }
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "shard {shard} leaves");
        assert_eq!(self.index.memory_report().total_entries, sealed);
        assert_eq!(self.index.hot_stats().entries, want.len() - sealed);
    }
}

/// A partitioned SNT-index: `K` [`SntIndex`] shards plus a thin routing
/// table, built once (see the module docs for the exactness argument).
pub struct ShardedSntIndex {
    router: ShardRouter,
    shards: Vec<Shard>,
    num_trajectories: usize,
    data_min: Timestamp,
    data_max: Timestamp,
}

impl ShardedSntIndex {
    /// Builds `num_shards` shards over a trajectory set.
    ///
    /// Every shard indexes each member trajectory from its first owned
    /// position on, with the whole trajectory's `seq` and aggregates, so
    /// answers match the monolith bit for bit (see the module docs).
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
        let mut starts: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut data_min = Timestamp::MAX;
        let mut data_max = Timestamp::MIN;
        for tr in trajectories {
            data_min = data_min.min(tr.start_time());
            let last = tr.entries().last().expect("trajectories are non-empty");
            data_max = data_max.max(last.enter_time);
            for (s, start) in router.first_owned(tr.entries()) {
                let s = s as usize;
                subsets[s]
                    .push(tr.user(), tr.entries().to_vec())
                    .expect("member of a valid set");
                members[s].push(tr.id().0);
                starts[s].push(start);
            }
        }
        if trajectories.is_empty() {
            data_min = 0;
            data_max = 0;
        }
        let shards = subsets
            .iter()
            .zip(members)
            .zip(&starts)
            .map(|((subset, members), starts)| Shard {
                index: SntIndex::build_suffixes(network, subset, starts, config),
                members,
            })
            .collect();
        ShardedSntIndex {
            router,
            shards,
            num_trajectories: trajectories.len(),
            data_min,
            data_max,
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

    /// Runs a closure against one shard's index.
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&SntIndex) -> R) -> R {
        f(&self.shards[s].index)
    }

    /// Global trajectory ids indexed by shard `s`, ascending.
    pub fn shard_members(&self, s: usize) -> Vec<u32> {
        self.shards[s].members.clone()
    }

    /// Number of trajectories indexed (the global id space; shard-local
    /// counts are larger in sum whenever trajectories cross shard
    /// boundaries).
    pub fn num_trajectories(&self) -> usize {
        self.num_trajectories
    }

    /// Earliest trajectory start time across all shards.
    pub fn data_min(&self) -> Timestamp {
        self.data_min
    }

    /// Latest segment entry time across all shards (`t_max`).
    pub fn data_max(&self) -> Timestamp {
        self.data_max
    }

    /// The shard owning a query (the shard of its path's first edge).
    fn route(&self, spq: &Spq) -> &Shard {
        &self.shards[self.router.shard_of(spq.path.first())]
    }

    /// `getTravelTimes` routed to the owning shard — byte-identical to the
    /// monolith over the same history (Procedure 5 semantics).
    #[cfg(test)]
    pub(crate) fn get_travel_times(&self, spq: &Spq) -> TravelTimes {
        self.get_travel_times_with(spq, &mut crate::SearchScratch::new())
    }

    /// [`ShardedSntIndex`]'s `getTravelTimes` through a per-query
    /// [`SearchScratch`](crate::SearchScratch). Each shard's inner index
    /// tags the scratch with its own process-unique id, so a relaxation
    /// chain whose sub-paths route to different shards can never be
    /// served cached ranges from the wrong index.
    pub fn get_travel_times_with(
        &self,
        spq: &Spq,
        scratch: &mut crate::SearchScratch,
    ) -> TravelTimes {
        self.route(spq)
            .query(spq, |i, q| i.get_travel_times_with(q, scratch))
    }

    /// A whole relaxation ladder routed to the owning shard
    /// ([`SntIndex::travel_times_ladder_with`]): every level keeps the
    /// path, so every level routes to the same shard.
    fn travel_times_ladder_with(
        &self,
        spq: &Spq,
        levels: &[TimeInterval],
        scratch: &mut crate::SearchScratch,
    ) -> (usize, TravelTimes) {
        self.route(spq)
            .query(spq, |i, q| i.travel_times_ladder_with(q, levels, scratch))
    }

    /// Exact predicate-matching traversal count with a fresh scratch: the
    /// tests' convenience over [`IndexBackend::count_matching_with`].
    #[cfg(test)]
    pub(crate) fn count_matching(&self, spq: &Spq, cap: u32) -> usize {
        IndexBackend::count_matching_with(self, spq, cap, &mut crate::SearchScratch::new())
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
        self.route(spq)
            .query(spq, |i, q| i.count_matching_with(q, cap, scratch))
    }

    fn estimate(&self, spq: &Spq, mode: CardinalityMode) -> f64 {
        // The owning shard sees every traversal of the path's first edge,
        // so its ISA counts and per-partition ToD histograms match the
        // monolith's term for term (absent partitions contribute 0).
        self.shards[self.router.shard_of(spq.path.first())].query(spq, |i, q| {
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
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E, EDGE_F};
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

    /// Values, fallback, capped counts and every estimator mode equal the
    /// monolith's bit for bit, and every shard keeps exactly its
    /// members' suffixes.
    fn assert_matches_monolith(mono: &SntIndex, sharded: &ShardedSntIndex) {
        for spq in workload() {
            let a = mono.get_travel_times(&spq);
            let b = sharded.get_travel_times(&spq);
            let ab: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{spq:?}");
            assert_eq!(a.fallback, b.fallback, "{spq:?}");
            for cap in [1, u32::MAX] {
                assert_eq!(
                    mono.count_matching(&spq, cap),
                    sharded.count_matching(&spq, cap),
                    "{spq:?} cap {cap}"
                );
            }
            for mode in CardinalityMode::ALL {
                assert_eq!(
                    IndexBackend::estimate(mono, &spq, mode).to_bits(),
                    sharded.estimate(&spq, mode).to_bits(),
                    "{spq:?} {mode:?}"
                );
            }
        }
        let history: Vec<Vec<TrajEntry>> = example_trajectories()
            .iter()
            .map(|tr| tr.entries().to_vec())
            .collect();
        for (s, shard) in sharded.shards.iter().enumerate() {
            shard.assert_keeps_suffixes(s as u16, &sharded.router, &history, mono);
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

    /// Trimming is not vacuous on the example: some shard keeps a member
    /// from past its first traversal, and at K = 1 nothing is trimmed.
    #[test]
    fn shards_store_fewer_leaves_than_whole_members() {
        let stored = |idx: &ShardedSntIndex| -> (usize, usize) {
            let whole = (0..idx.num_shards())
                .flat_map(|s| idx.shard_members(s))
                .map(|g| example_trajectories().get(TrajId(g)).entries().len())
                .sum();
            let kept = (0..idx.num_shards())
                .map(|s| idx.with_shard(s, |i| i.memory_report().total_entries))
                .sum();
            (whole, kept)
        };
        let (whole, kept) = stored(&sharded(1));
        assert_eq!(kept, whole);
        assert_eq!(kept, monolith().memory_report().total_entries);
        for k in [2usize, 7] {
            let (whole, kept) = stored(&sharded(k));
            assert!(kept < whole, "k={k}: {kept} of {whole} leaves kept");
        }
    }

    #[test]
    fn shards_of_a_trajectory_start_at_its_first_owned_position() {
        let net = example_network();
        let router = ShardRouter::build(&net, 7);
        for tr in &example_trajectories() {
            let firsts = router.first_owned(tr.entries());
            assert!(firsts.windows(2).all(|w| w[0].0 < w[1].0));
            for &(s, k) in &firsts {
                let k = k as usize;
                assert_eq!(router.shard_of(tr.entries()[k].edge), s as usize);
                assert!(tr.entries()[..k]
                    .iter()
                    .all(|en| router.shard_of(en.edge) != s as usize));
            }
            let touched = tr
                .entries()
                .iter()
                .map(|en| router.shard_of(en.edge) as u16);
            let mut touched: Vec<u16> = touched.collect();
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(firsts.iter().map(|f| f.0).collect::<Vec<_>>(), touched);
        }
        let stray = example_trajectories().get(TrajId(0)).clone();
        let foreign = (0..7u16)
            .find(|&s| router.first_owned(stray.entries()).iter().all(|f| f.0 != s))
            .expect("a 3-edge trajectory misses some of 7 shards");
        assert!(matches!(
            router.suffix_starts(foreign, &[stray]),
            Err(StoreError::Corrupt { .. })
        ));
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
