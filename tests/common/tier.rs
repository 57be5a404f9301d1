//! The serving tiers a differential leg runs against, behind one
//! [`Tier`] trait: the in-process [`QueryService`], the HTTP server over
//! it, the router over spawned `tthr-node` processes, and — for the
//! read-only legs — the engine over the immutable K-shard build those
//! nodes are exported from. Every tier answers `/spq`, `/trip` and
//! `/batch` as the bytes `tthr::server::wire` writes, so one oracle
//! checks them all ([`super::differential::Run`]).

use std::path::PathBuf;
use std::sync::Arc;

use tthr::client::ClientConfig;
use tthr::core::{
    CardinalityMode, IndexBackend, QueryEngine, QueryEngineConfig, SearchScratch, ShardedSntIndex,
    SntConfig, SntIndex, Spq, TimeInterval, TravelTimeProvider, TripQuery,
};
use tthr::network::RoadNetwork;
use tthr::rpc::Message;
use tthr::server::{serve, wire, ServerConfig, ServerHandle};
use tthr::service::{IngestConfig, QueryService, ServiceConfig};
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

use super::cluster::{ClusterHarness, CLUSTER_K};
use super::differential::ladder_bytes;
use super::http::{batch_body, post};
use super::prefix_set;

/// One serving tier under test. Answers are wire bytes; capabilities a
/// tier lacks answer `None` / `false`, and a leg that needs one names it
/// when it is missing.
pub(crate) trait Tier: Sync {
    /// The `/spq` answer.
    fn spq(&self, q: &Spq) -> Vec<u8>;
    /// The `/trip` answer.
    fn trip(&self, q: &Spq) -> Vec<u8>;
    /// The `/batch` answer (trips in request order).
    fn batch(&self, qs: &[Spq]) -> Vec<u8>;
    /// Appends `full[base..to]` as one batch stamped `base`; returns the
    /// count the tier acknowledged.
    fn append(&self, full: &TrajectorySet, base: usize, to: usize) -> usize;
    /// Seals the hot tail (in process, HTTP) or rotates every node's
    /// snapshot (cluster); returns the entries sealed where the tier
    /// reports them.
    fn compact(&self) -> usize;
    /// Entries waiting in the hot tail, where the tier can see them.
    fn hot_entries(&self) -> Option<usize> {
        None
    }
    /// The `/spq` answer the tier's result cache holds, if any, without
    /// computing one (the probe a front end answers a hit with).
    fn cached_spq(&self, _q: &Spq) -> Option<Vec<u8>> {
        None
    }
    /// Persists a snapshot; later appends are WAL-logged on top of it.
    fn snapshot(&mut self) -> bool {
        false
    }
    /// Restarts from the latest snapshot plus the WAL.
    fn restart(&mut self) -> bool {
        false
    }
    /// One relaxation ladder answered in one call ([`ladder_bytes`]).
    fn ladder(&self, _q: &Spq, _levels: &[TimeInterval]) -> Option<Vec<u8>> {
        None
    }
    /// The capped count and every estimator mode's bits.
    fn primitives(&self, _q: &Spq, _cap: u32) -> Option<(usize, Vec<u64>)> {
        None
    }
}

/// How a tier is reached.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Front {
    /// Calls into a [`QueryService`].
    InProcess,
    /// Loopback HTTP to [`serve`] over a [`QueryService`].
    Http,
    /// The [`tthr::client::ClusterRouter`] over `tthr-node` processes.
    Cluster,
    /// The engine over a [`ShardedSntIndex`] of this many shards: the
    /// partitioner a cluster boots from, read-only.
    Sharded(usize),
}

/// A tier to boot: front door, and whether appends absorb into a hot
/// tail (the in-process and HTTP fronts; cluster nodes always seal).
#[derive(Clone, Copy, Debug)]
pub(crate) struct TierSpec {
    pub name: &'static str,
    pub front: Front,
    pub hot_tail: bool,
}

impl TierSpec {
    /// Boots the tier over `full[..applied]`.
    pub(crate) fn boot(
        &self,
        dir_name: &str,
        network: &Arc<RoadNetwork>,
        full: &TrajectorySet,
        applied: usize,
        engine: &QueryEngineConfig,
    ) -> Box<dyn Tier> {
        if let Front::Cluster = self.front {
            let h = ClusterHarness::boot(dir_name, ClientConfig::default());
            assert_eq!(h.applied, applied, "the cluster boots over the same prefix");
            return Box::new(Cluster { name: self.name, h });
        }
        if let Front::Sharded(k) = self.front {
            let initial = prefix_set(full, applied);
            return Box::new(Sharded {
                name: self.name,
                network: Arc::clone(network),
                index: ShardedSntIndex::build(network, &initial, SntConfig::default(), k),
                engine: engine.clone(),
            });
        }
        let config = service_config(engine, self.hot_tail);
        let index = SntIndex::build(network, &prefix_set(full, applied), SntConfig::default());
        let svc = QueryService::new(index, Arc::clone(network), config.clone());
        match self.front {
            Front::InProcess => Box::new(InProcess::new(self.name, svc, config, dir_name)),
            Front::Http => Box::new(Http::new(self.name, svc)),
            Front::Cluster | Front::Sharded(_) => unreachable!("booted above"),
        }
    }
}

/// The service configuration the in-process and HTTP tiers run.
pub(crate) fn service_config(engine: &QueryEngineConfig, hot_tail: bool) -> ServiceConfig {
    ServiceConfig {
        num_threads: 2,
        cache_capacity: 4096,
        engine: engine.clone(),
        ingest: IngestConfig {
            hot_tail,
            ..IngestConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// `full[from..to]` as an append payload.
pub(crate) fn payload(
    full: &TrajectorySet,
    from: usize,
    to: usize,
) -> Vec<(UserId, Vec<TrajEntry>)> {
    (from..to)
        .map(|id| {
            let tr = full.get(TrajId(id as u32));
            (tr.user(), tr.entries().to_vec())
        })
        .collect()
}

/// Seals a service's hot tail and asserts it drained.
fn compact_service(name: &str, svc: &QueryService) -> usize {
    let outcome = svc
        .compact_now()
        .unwrap_or_else(|e| panic!("{name}: compact: {e}"));
    assert_eq!(svc.hot_stats().entries, 0, "{name} kept a hot tail");
    outcome.sealed_entries
}

/// The in-process service, with snapshot/restart cycles in a scratch
/// directory (removed on drop).
pub(crate) struct InProcess {
    pub name: &'static str,
    pub svc: QueryService,
    /// Append through the grown-set entry point (`append_batch`) instead
    /// of the stamped payload a network client ships (`append_new`).
    pub via_grown_set: bool,
    config: ServiceConfig,
    dir: PathBuf,
    latest: Option<PathBuf>,
    snapshots: usize,
}

impl InProcess {
    pub(crate) fn new(
        name: &'static str,
        svc: QueryService,
        config: ServiceConfig,
        dir_name: &str,
    ) -> InProcess {
        let dir = std::env::temp_dir().join(format!("tthr-tier-{}-{dir_name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        InProcess {
            name,
            svc,
            via_grown_set: false,
            config,
            dir,
            latest: None,
            snapshots: 0,
        }
    }

    /// The named file of the latest snapshot directory, and the
    /// service's in-memory snapshot bytes.
    pub(crate) fn store_bytes(&self, file: &str) -> (Vec<u8>, Vec<u8>) {
        let dir = self.latest.as_ref().expect("snapshot() ran");
        let mut state = Vec::new();
        self.svc
            .with_index(|i| i.write_snapshot_to(&mut state))
            .expect("snapshot bytes");
        (std::fs::read(dir.join(file)).expect("store file"), state)
    }
}

impl Tier for InProcess {
    fn spq(&self, q: &Spq) -> Vec<u8> {
        wire::encode_travel_times(&self.svc.get_travel_times(q)).into_bytes()
    }

    fn trip(&self, q: &Spq) -> Vec<u8> {
        wire::encode_trip(&self.svc.trip_query(q)).into_bytes()
    }

    fn batch(&self, qs: &[Spq]) -> Vec<u8> {
        wire::encode_trips(&self.svc.batch_trip_queries(qs)).into_bytes()
    }

    fn append(&self, full: &TrajectorySet, base: usize, to: usize) -> usize {
        let appended = if self.via_grown_set {
            self.svc.append_batch(&prefix_set(full, to))
        } else {
            self.svc
                .append_new(Some(base as u64), &payload(full, base, to))
        };
        appended.unwrap_or_else(|e| panic!("{}: append: {e}", self.name))
    }

    fn compact(&self) -> usize {
        compact_service(self.name, &self.svc)
    }

    fn hot_entries(&self) -> Option<usize> {
        Some(self.svc.hot_stats().entries)
    }

    fn cached_spq(&self, q: &Spq) -> Option<Vec<u8>> {
        let hit = self.svc.cached_travel_times(q)?;
        Some(wire::encode_travel_times(&hit).into_bytes())
    }

    fn snapshot(&mut self) -> bool {
        self.snapshots += 1;
        let dir = self.dir.join(format!("snap-{}", self.snapshots));
        self.svc
            .save_snapshot(&dir)
            .unwrap_or_else(|e| panic!("{}: snapshot: {e}", self.name));
        self.latest = Some(dir);
        true
    }

    /// A no-op until a snapshot was taken.
    fn restart(&mut self) -> bool {
        if let Some(dir) = &self.latest {
            let want = self.svc.with_index(|i| i.num_trajectories());
            let network = Arc::clone(self.svc.network());
            self.svc = QueryService::open(dir, network, self.config.clone())
                .unwrap_or_else(|e| panic!("{}: reopen: {e}", self.name));
            let got = self.svc.with_index(|i| i.num_trajectories());
            assert_eq!(got, want, "{} lost trajectories on reopen", self.name);
        }
        true
    }

    fn ladder(&self, q: &Spq, levels: &[TimeInterval]) -> Option<Vec<u8>> {
        let answer = self
            .svc
            .with_index(|i| i.travel_times_ladder(q, levels, &mut SearchScratch::new()));
        Some(ladder_bytes(&answer))
    }
}

impl Drop for InProcess {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The HTTP server over a service, plus a handle on that service for
/// the lifecycle (compaction) a client cannot trigger.
pub(crate) struct Http {
    pub name: &'static str,
    pub server: ServerHandle,
    pub svc: QueryService,
}

impl Http {
    pub(crate) fn new(name: &'static str, svc: QueryService) -> Http {
        let server = serve(svc.clone(), "127.0.0.1:0", ServerConfig::default()).expect("boot");
        Http { name, server, svc }
    }

    /// One `POST`, which must answer `200`; returns the body.
    fn post_ok(&self, path: &str, body: &[u8]) -> Vec<u8> {
        let response = post(self.server.local_addr(), path, body);
        assert_eq!(
            response.status,
            200,
            "{}: {path} answered {}",
            self.name,
            response.body_str()
        );
        response.body
    }
}

impl Tier for Http {
    fn spq(&self, q: &Spq) -> Vec<u8> {
        self.post_ok("/spq", wire::encode_spq(q).as_bytes())
    }

    fn trip(&self, q: &Spq) -> Vec<u8> {
        self.post_ok("/trip", wire::encode_spq(q).as_bytes())
    }

    fn batch(&self, qs: &[Spq]) -> Vec<u8> {
        self.post_ok("/batch", batch_body(qs).as_bytes())
    }

    /// Also replays the stamped body, which must be a no-op like WAL
    /// replay.
    fn append(&self, full: &TrajectorySet, base: usize, to: usize) -> usize {
        let body = wire::encode_append_request(Some(base as u64), &payload(full, base, to));
        let answer = self.post_ok("/append", body.as_bytes());
        let replay = self.post_ok("/append", body.as_bytes());
        assert_eq!(
            replay,
            wire::encode_appended(0).as_bytes(),
            "{}: replaying a stamped batch must append nothing",
            self.name
        );
        let answer = tthr::server::json::parse(&answer).expect("append answer");
        answer
            .get("appended")
            .and_then(|v| v.as_u64())
            .expect("count") as usize
    }

    fn compact(&self) -> usize {
        compact_service(self.name, &self.svc)
    }

    fn hot_entries(&self) -> Option<usize> {
        Some(self.svc.hot_stats().entries)
    }

    fn cached_spq(&self, q: &Spq) -> Option<Vec<u8>> {
        let hit = self.svc.cached_travel_times(q)?;
        Some(wire::encode_travel_times(&hit).into_bytes())
    }
}

/// The engine over an immutable [`ShardedSntIndex`] build: every query
/// routes by its first edge to one shard. It answers reads only.
pub(crate) struct Sharded {
    pub name: &'static str,
    network: Arc<RoadNetwork>,
    index: ShardedSntIndex,
    engine: QueryEngineConfig,
}

impl Sharded {
    fn trip_query(&self, q: &Spq) -> TripQuery {
        QueryEngine::new(&self.index, &self.network, self.engine.clone()).trip_query(q)
    }
}

impl Tier for Sharded {
    fn spq(&self, q: &Spq) -> Vec<u8> {
        let answer = self
            .index
            .get_travel_times_with(q, &mut SearchScratch::new());
        wire::encode_travel_times(&answer).into_bytes()
    }

    fn trip(&self, q: &Spq) -> Vec<u8> {
        wire::encode_trip(&self.trip_query(q)).into_bytes()
    }

    fn batch(&self, qs: &[Spq]) -> Vec<u8> {
        let trips: Vec<TripQuery> = qs.iter().map(|q| self.trip_query(q)).collect();
        wire::encode_trips(&trips).into_bytes()
    }

    fn append(&self, _: &TrajectorySet, _: usize, _: usize) -> usize {
        panic!("{}: a sharded build is immutable", self.name)
    }

    fn compact(&self) -> usize {
        panic!("{}: a sharded build is immutable", self.name)
    }

    fn ladder(&self, q: &Spq, levels: &[TimeInterval]) -> Option<Vec<u8>> {
        let answer = self
            .index
            .travel_times_ladder(q, levels, &mut SearchScratch::new());
        Some(ladder_bytes(&answer))
    }

    fn primitives(&self, q: &Spq, cap: u32) -> Option<(usize, Vec<u64>)> {
        let count = self
            .index
            .count_matching_with(q, cap, &mut SearchScratch::new());
        let estimates = CardinalityMode::ALL
            .iter()
            .map(|&mode| self.index.estimate(q, mode).to_bits())
            .collect();
        Some((count, estimates))
    }
}

/// The scatter-gather router over [`CLUSTER_K`] `tthr-node` processes.
pub(crate) struct Cluster {
    pub name: &'static str,
    pub h: ClusterHarness,
}

impl Cluster {
    fn trip_query(&self, q: &Spq) -> TripQuery {
        self.h
            .cluster
            .trip_query(q)
            .unwrap_or_else(|e| panic!("{}: trip: {e}", self.name))
    }
}

impl Tier for Cluster {
    fn spq(&self, q: &Spq) -> Vec<u8> {
        let answer = self.h.cluster.travel_times(q);
        let answer = answer.unwrap_or_else(|e| panic!("{}: spq: {e}", self.name));
        wire::encode_travel_times(&answer).into_bytes()
    }

    fn cached_spq(&self, q: &Spq) -> Option<Vec<u8>> {
        let hit = self.h.cluster.cached_travel_times(q)?;
        Some(wire::encode_travel_times(&hit).into_bytes())
    }

    fn trip(&self, q: &Spq) -> Vec<u8> {
        wire::encode_trip(&self.trip_query(q)).into_bytes()
    }

    fn batch(&self, qs: &[Spq]) -> Vec<u8> {
        let trips: Vec<TripQuery> = qs.iter().map(|q| self.trip_query(q)).collect();
        wire::encode_trips(&trips).into_bytes()
    }

    fn append(&self, full: &TrajectorySet, base: usize, to: usize) -> usize {
        let appended = self
            .h
            .cluster
            .append_batch(Some(base as u64), &payload(full, base, to))
            .unwrap_or_else(|e| panic!("{}: append: {e}", self.name));
        assert_eq!(
            self.h.cluster.num_global() as usize,
            to,
            "{}: global counter diverged after append",
            self.name
        );
        appended as usize
    }

    /// Asks every node to rotate its snapshot; each node's snapshot
    /// stamp must then reach its applied stamp.
    fn compact(&self) -> usize {
        for addr in self.h.addrs() {
            let client = tthr::client::NodeClient::new(addr, ClientConfig::default());
            match client.request(&Message::Snapshot) {
                Ok(Message::Ok) => {}
                other => panic!("{}: snapshot rotation at {addr}: {other:?}", self.name),
            }
            match client.request(&Message::Health) {
                Ok(Message::ReplStatus {
                    applied_stamp,
                    snapshot_stamp,
                    ..
                }) => assert_eq!(
                    snapshot_stamp, applied_stamp,
                    "{}: rotation must stamp the snapshot at {addr}",
                    self.name
                ),
                other => panic!(
                    "{}: unexpected health reply from {addr}: {other:?}",
                    self.name
                ),
            }
        }
        0
    }

    fn snapshot(&mut self) -> bool {
        self.compact();
        true
    }

    /// Kills every node and restarts it from its store directory
    /// (snapshot + WAL replay), then reconnects the router.
    fn restart(&mut self) -> bool {
        let want = self.h.cluster.num_global();
        for shard in 0..CLUSTER_K {
            self.h.kill_node(shard);
        }
        for shard in 0..CLUSTER_K {
            self.h.respawn_node(shard);
        }
        self.h.reconnect();
        assert_eq!(
            self.h.cluster.num_global(),
            want,
            "{}: restart lost trajectories",
            self.name
        );
        true
    }

    fn ladder(&self, q: &Spq, levels: &[TimeInterval]) -> Option<Vec<u8>> {
        let answer = self.h.cluster.travel_times_ladder(q, levels);
        let answer = answer.unwrap_or_else(|e| panic!("{}: ladder: {e}", self.name));
        Some(ladder_bytes(&answer))
    }

    fn primitives(&self, q: &Spq, cap: u32) -> Option<(usize, Vec<u64>)> {
        let cluster = &self.h.cluster;
        let count = cluster.count_matching(q, cap).expect("cluster count");
        let estimates = CardinalityMode::ALL
            .iter()
            .map(|&mode| {
                cluster
                    .estimate(q, mode)
                    .expect("cluster estimate")
                    .to_bits()
            })
            .collect();
        Some((count, estimates))
    }
}
