//! The systems under test, booted in this process through their public
//! entry points and configured with constants — never from the
//! environment: one reactor, two service workers, every other option at
//! its shipped default.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use tthr::client::{ClientConfig, ClusterRouter};
use tthr::core::{
    MemoryReport, QueryEngineConfig, ShardNodeState, ShardedSntIndex, SntConfig, SntIndex,
};
use tthr::network::RoadNetwork;
use tthr::server::cluster::serve_cluster;
use tthr::server::node::{serve_node, NodeStore};
use tthr::server::{serve, ServerConfig, ServerHandle};
use tthr::service::{IngestConfig, QueryService, ServiceConfig};
use tthr::trajectory::TrajectorySet;

use crate::world::{set_span, Sizing, World};

/// Shards (and `serve_node` threads) of the cluster tier.
pub const SHARDS: usize = 2;

pub type Error = Box<dyn std::error::Error + Send + Sync>;

fn service_config(ingest: IngestConfig) -> ServiceConfig {
    ServiceConfig {
        num_threads: 2,
        ingest,
        ..ServiceConfig::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    }
}

/// Bytes a `MemoryReport` accounts for, as allocated.
fn report_bytes(r: &MemoryReport) -> u64 {
    (r.counts_bytes + r.wavelet_bytes + r.user_bytes + r.forest_bytes + r.tod_bytes) as u64
}

/// The single-process tier: `QueryService` behind `tthr::server::serve`.
pub struct Served {
    pub service: QueryService,
    pub server: ServerHandle,
    /// Snapshot + WAL directory when persistence is attached.
    pub store: Option<PathBuf>,
    /// Snapshot size written at boot, when persistence is attached.
    pub snapshot_bytes: u64,
    /// Seconds the boot-time `save_snapshot` took.
    pub snapshot_save_s: f64,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// The cluster tier: `serve_cluster` HTTP in front of a `ClusterRouter`
/// over [`SHARDS`] `serve_node` threads. Neither entry point returns, so
/// the threads live until the process exits.
pub struct Cluster {
    pub http: SocketAddr,
    pub nodes: Vec<SocketAddr>,
}

pub enum Tier {
    Process(Served),
    Cluster(Cluster),
}

impl Tier {
    pub fn addr(&self) -> SocketAddr {
        match self {
            Tier::Process(s) => s.addr(),
            Tier::Cluster(c) => c.http,
        }
    }

    pub fn served(&self) -> Option<&Served> {
        match self {
            Tier::Process(s) => Some(s),
            Tier::Cluster(_) => None,
        }
    }

    pub fn shutdown(self) {
        if let Tier::Process(s) = self {
            s.server.shutdown();
            quiesce(&s.service);
        }
    }
}

/// Parks every service worker on a barrier before the caller drops its
/// service handle. A worker can still be dropping the closure of the last
/// request (which holds a handle too) after the reply has been read and
/// the server shut down; were that the last handle, `ThreadPool::drop`
/// would run on the worker and join itself (`EDEADLK` panic). With every
/// worker provably past its previous job, the caller's handle is the last.
fn quiesce(service: &QueryService) {
    let barrier = Arc::new(std::sync::Barrier::new(service.num_threads() + 1));
    for _ in 0..service.num_threads() {
        let barrier = Arc::clone(&barrier);
        service.execute(move || {
            barrier.wait();
        });
    }
    barrier.wait();
}

/// A booted tier and the memory its index reports.
pub struct Booted {
    pub tier: Tier,
    pub index_bytes: u64,
}

fn booted(tier: Tier, reports: &[MemoryReport]) -> Booted {
    Booted {
        tier,
        index_bytes: reports.iter().map(report_bytes).sum(),
    }
}

pub fn boot_single(world: &World) -> Result<Booted, Error> {
    let index = SntIndex::build(&world.network, &world.set, SntConfig::default());
    let report = index.memory_report();
    let service = QueryService::new(
        index,
        Arc::new(world.network.clone()),
        service_config(IngestConfig::default()),
    );
    let server = serve(service.clone(), "127.0.0.1:0", server_config())?;
    Ok(booted(
        Tier::Process(Served {
            service,
            server,
            store: None,
            snapshot_bytes: 0,
            snapshot_save_s: 0.0,
        }),
        &[report],
    ))
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

pub fn build_sharded(world: &World) -> ShardedSntIndex {
    ShardedSntIndex::build(&world.network, &world.set, SntConfig::default(), SHARDS)
}

/// Boots the cluster tier from an in-process sharded build: one
/// `NodeStore` per shard initialised from `ShardNodeState::export_from`.
pub fn boot_cluster(world: &World, sharded: &ShardedSntIndex, dir: &Path) -> Result<Booted, Error> {
    fresh_dir(dir)?;
    let reports: Vec<MemoryReport> = (0..SHARDS)
        .map(|s| sharded.with_shard(s, |i| i.memory_report()))
        .collect();
    let mut nodes = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let store = NodeStore::init(
            dir.join(format!("node{shard}")),
            ShardNodeState::export_from(sharded, shard),
        )?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        nodes.push(listener.local_addr()?);
        std::thread::spawn(move || serve_node(listener, store));
    }
    let router = connect_router(&world.network, &nodes)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let http = listener.local_addr()?;
    std::thread::spawn(move || serve_cluster(listener, router));
    Ok(booted(Tier::Cluster(Cluster { http, nodes }), &reports))
}

pub fn connect_router(network: &RoadNetwork, nodes: &[SocketAddr]) -> Result<ClusterRouter, Error> {
    Ok(ClusterRouter::connect(
        network.clone(),
        nodes,
        QueryEngineConfig::default(),
        ClientConfig::default(),
    )?)
}

/// The ingest configuration: hot tail on, retention of half the base
/// span (data clock), compaction by the size trigger only.
pub fn ingest_config(base: &TrajectorySet, sizing: &Sizing) -> IngestConfig {
    let (lo, hi) = set_span(base);
    IngestConfig {
        hot_tail: true,
        compaction_interval: None,
        hot_max_entries: sizing.hot_max_entries,
        retention: Some(Duration::from_secs(((hi - lo) / 2) as u64)),
    }
}

/// The ingest tier: the first half of the world behind the single-process
/// server, persistence attached by `save_snapshot` (WAL group commit,
/// one `fsync` per commit group — the shipped policy).
pub fn boot_ingest(
    world: &World,
    base: &TrajectorySet,
    sizing: &Sizing,
    dir: &Path,
) -> Result<Booted, Error> {
    fresh_dir(dir)?;
    let index = SntIndex::build(&world.network, base, SntConfig::default());
    let report = index.memory_report();
    let service = QueryService::new(
        index,
        Arc::new(world.network.clone()),
        service_config(ingest_config(base, sizing)),
    );
    let t0 = std::time::Instant::now();
    let info = service.save_snapshot(dir)?;
    let snapshot_save_s = t0.elapsed().as_secs_f64();
    let server = serve(service.clone(), "127.0.0.1:0", server_config())?;
    Ok(booted(
        Tier::Process(Served {
            service,
            server,
            store: Some(dir.to_path_buf()),
            snapshot_bytes: info.bytes,
            snapshot_save_s,
        }),
        &[report],
    ))
}

/// Reopens a store directory the way a restart would.
pub fn reopen(
    world: &World,
    base: &TrajectorySet,
    sizing: &Sizing,
    dir: &Path,
) -> Result<QueryService, Error> {
    Ok(QueryService::open(
        dir,
        Arc::new(world.network.clone()),
        service_config(ingest_config(base, sizing)),
    )?)
}
