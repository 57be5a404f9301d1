//! The cluster differential harness: a real shard-per-process cluster —
//! K spawned `tthr-node` processes plus an in-process [`ClusterRouter`]
//! — next to the in-process [`ShardedSntIndex`] it must answer
//! byte-identically to.
//!
//! Bootstrap mirrors production: build the sharded index once, export
//! each shard as a [`ShardNodeState`], initialise each node's store
//! directory (snapshot + WAL), spawn the node binaries on ephemeral
//! ports (discovered through their `LISTENING <addr>` stdout line), and
//! assemble the router. Nodes exit when their stdin closes, so a
//! panicking test cannot leak processes.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use tthr::client::{ClientConfig, ClusterRouter, NodeClient, RouterConfig};
use tthr::core::persist::prepare_batch;
use tthr::core::{
    ladder_sequential, QueryEngine, QueryEngineConfig, SearchScratch, ShardNodeState,
    ShardedSntIndex, SntConfig, Spq, TripQuery,
};
use tthr::network::RoadNetwork;
use tthr::rpc::Message;
use tthr::server::node::NodeStore;
use tthr::server::wire;
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

use super::differential::{ladder_bytes, ladder_levels};
use super::{prefix_set, small_world, value_bits as bits};

/// The shard count every cluster test runs with: two real processes is
/// the smallest cluster where routing can actually go wrong.
pub const CLUSTER_K: usize = 2;

/// One spawned `tthr-node` process.
pub struct NodeProcess {
    /// The shard this node serves.
    pub shard: usize,
    /// The node's store directory (survives kills; restarts reuse it).
    pub dir: PathBuf,
    /// The ephemeral address the node bound.
    pub addr: SocketAddr,
    child: Child,
    // Held open so the node keeps running; dropping it asks the node to
    // exit (its stdin-EOF watchdog).
    _stdin: ChildStdin,
}

impl NodeProcess {
    /// Spawns `tthr-node --dir <dir>` and waits for its `LISTENING`
    /// line.
    pub fn spawn(shard: usize, dir: &Path) -> NodeProcess {
        Self::spawn_with(shard, dir, &[])
    }

    /// [`NodeProcess::spawn`] with extra CLI flags (e.g. `--hot-tail`).
    pub fn spawn_with(shard: usize, dir: &Path, extra_args: &[&str]) -> NodeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tthr-node"))
            .args(["--dir", dir.to_str().expect("utf-8 store dir")])
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tthr-node");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let addr = read_listening_line(stdout);
        NodeProcess {
            shard,
            dir: dir.to_path_buf(),
            addr,
            child,
            _stdin: stdin,
        }
    }

    /// Spawns `tthr-node --dir <dir> --standby-of <primary>` and waits
    /// for its `LISTENING` line (which a standby prints only once it
    /// has bootstrapped and is queryable).
    pub fn spawn_standby(shard: usize, dir: &Path, primary: SocketAddr) -> NodeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tthr-node"))
            .args([
                "--dir",
                dir.to_str().expect("utf-8 store dir"),
                "--standby-of",
                &primary.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tthr-node standby");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let addr = read_listening_line(stdout);
        NodeProcess {
            shard,
            dir: dir.to_path_buf(),
            addr,
            child,
            _stdin: stdin,
        }
    }

    /// Kills the node process outright (SIGKILL — no graceful anything),
    /// simulating a crashed replica.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls a node's `Health` until its applied stamp reaches `want`
/// (replication is asynchronous — tests must wait, not assume).
/// Panics after `timeout`.
pub fn wait_for_stamp(addr: SocketAddr, want: u64, timeout: Duration) {
    let client = NodeClient::new(
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            retries: 0,
            backoff: Duration::from_millis(1),
        },
    );
    let deadline = Instant::now() + timeout;
    let mut last = None;
    loop {
        if let Ok(Message::ReplStatus { applied_stamp, .. }) = client.request(&Message::Health) {
            if applied_stamp >= want {
                return;
            }
            last = Some(applied_stamp);
        }
        assert!(
            Instant::now() < deadline,
            "node at {addr} stuck at stamp {last:?}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

impl Drop for NodeProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Blocks until the child prints `LISTENING <addr>`.
pub fn read_listening_line(stdout: impl std::io::Read) -> SocketAddr {
    let reader = std::io::BufReader::new(stdout);
    for line in reader.lines() {
        let line = line.expect("child stdout");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            return addr.parse().expect("valid LISTENING address");
        }
    }
    panic!("child exited before printing LISTENING");
}

/// Read RPCs `router` has routed so far, summed over shards (the
/// `tthr_router_rpcs_total{shard}` family on its `/metrics`).
pub fn router_rpcs(router: &ClusterRouter) -> u64 {
    router
        .render_metrics()
        .lines()
        .filter(|l| l.starts_with("tthr_router_rpcs_total{"))
        .map(|l| {
            let value = l.rsplit(' ').next().expect("sample value");
            value.parse::<u64>().expect("integer counter")
        })
        .sum()
}

/// A frame-level relay in front of `upstream`, one connection at a time:
/// `answer` sees every request plus a client for the real node and
/// returns the reply to send — or `None` to die like a killed process
/// (the request's connection closes unanswered and the listener goes
/// away).
pub fn relay(
    upstream: SocketAddr,
    mut answer: impl FnMut(&Message, &NodeClient) -> Option<Message> + Send + 'static,
) -> SocketAddr {
    relay_bytes(upstream, move |request, node| {
        answer(request, node).map(|reply| tthr::rpc::encode_frame(&reply))
    })
}

/// A [`relay`] whose `answer` returns the reply's raw bytes, so it can
/// send a frame no node would.
pub fn relay_bytes(
    upstream: SocketAddr,
    mut answer: impl FnMut(&Message, &NodeClient) -> Option<Vec<u8>> + Send + 'static,
) -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let node = NodeClient::new(upstream, ClientConfig::default());
        while let Ok((mut conn, _)) = listener.accept() {
            while let Ok(Some(request)) = tthr::rpc::read_frame(&mut conn) {
                let Some(reply) = answer(&request, &node) else {
                    return; // drops `conn` and `listener`
                };
                if std::io::Write::write_all(&mut conn, &reply).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

/// A [`relay`] that serves every request until the `nth` `LadderBatch`
/// arrives, then dies — before the real node sees that batch.
pub fn relay_that_dies_on_ladder_batch(upstream: SocketAddr, nth: usize) -> SocketAddr {
    let mut batches = 0;
    relay(upstream, move |request, node| {
        batches += usize::from(matches!(request, Message::LadderBatch { .. }));
        (batches < nth).then(|| node.request(request).expect("upstream reply"))
    })
}

/// A live 2-process cluster plus its in-process reference index.
pub struct ClusterHarness {
    /// The shared road network (the cluster router owns its own clone).
    pub network: RoadNetwork,
    /// The full datagen stream; `applied` trajectories are indexed.
    pub full: TrajectorySet,
    /// Trajectories indexed so far (on both sides).
    pub applied: usize,
    /// The in-process truth the cluster must match byte-for-byte.
    pub reference: ShardedSntIndex,
    /// The engine configuration both sides plan trip queries with.
    pub engine_config: QueryEngineConfig,
    /// The node processes, indexed by shard.
    pub nodes: Vec<NodeProcess>,
    /// The scatter-gather router under test.
    pub cluster: ClusterRouter,
    client_config: ClientConfig,
    dir: PathBuf,
    /// Whether nodes run with `--hot-tail` (respawns preserve the mode).
    hot_tail: bool,
}

impl ClusterHarness {
    /// Builds the reference index over the first third of a small
    /// synthetic world, bootstraps node stores from its shards, spawns
    /// the node processes, and connects the router.
    pub fn boot(name: &str, client_config: ClientConfig) -> ClusterHarness {
        Self::boot_with(name, client_config, false)
    }

    /// [`ClusterHarness::boot`] with every node running `--hot-tail`:
    /// appends absorb into per-node hot tails and seal at snapshot
    /// rotations, while the in-process reference applies them directly —
    /// so every differential check also pins the absorb/apply identity
    /// across the wire.
    pub fn boot_hot_tail(name: &str, client_config: ClientConfig) -> ClusterHarness {
        Self::boot_with(name, client_config, true)
    }

    fn boot_with(name: &str, client_config: ClientConfig, hot_tail: bool) -> ClusterHarness {
        let (syn, full) = small_world();
        let network = syn.network;
        let applied = full.len() / 3;
        let initial = prefix_set(&full, applied);
        let reference = ShardedSntIndex::build(&network, &initial, SntConfig::default(), CLUSTER_K);
        let dir = std::env::temp_dir().join(format!("tthr-cluster-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node_args: &[&str] = if hot_tail { &["--hot-tail"] } else { &[] };
        let nodes: Vec<NodeProcess> = (0..CLUSTER_K)
            .map(|shard| {
                let node_dir = dir.join(format!("node{shard}"));
                NodeStore::init(&node_dir, ShardNodeState::export_from(&reference, shard))
                    .expect("init node store");
                NodeProcess::spawn_with(shard, &node_dir, node_args)
            })
            .collect();
        let engine_config = QueryEngineConfig::default();
        let cluster = ClusterRouter::connect(
            network.clone(),
            &nodes.iter().map(|n| n.addr).collect::<Vec<_>>(),
            engine_config.clone(),
            client_config.clone(),
        )
        .expect("connect cluster");
        ClusterHarness {
            network,
            full,
            applied,
            reference,
            engine_config,
            nodes,
            cluster,
            client_config,
            dir,
            hot_tail,
        }
    }

    /// The nodes' current addresses, indexed by shard.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// A fresh store directory under the harness root (cleaned up with
    /// the harness), for standby replicas.
    pub fn standby_dir(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Spawns a standby for `shard`, bootstrapping by snapshot-shipping
    /// from the shard's current primary.
    pub fn spawn_standby(&self, shard: usize, name: &str) -> NodeProcess {
        NodeProcess::spawn_standby(shard, &self.standby_dir(name), self.nodes[shard].addr)
    }

    /// Like [`ClusterHarness::spawn_standby`], but tailing `primary`
    /// (e.g. a fault proxy in front of the real one).
    pub fn spawn_standby_via(&self, shard: usize, name: &str, primary: SocketAddr) -> NodeProcess {
        NodeProcess::spawn_standby(shard, &self.standby_dir(name), primary)
    }

    /// A failover router over explicit per-shard endpoint groups
    /// (primary first, then standbys), sharing the harness network and
    /// engine config.
    pub fn router_with(&self, groups: &[Vec<SocketAddr>], config: RouterConfig) -> ClusterRouter {
        ClusterRouter::connect_with_standbys(
            self.network.clone(),
            groups,
            self.engine_config.clone(),
            config,
        )
        .expect("connect failover router")
    }

    /// Whether the stream still has unappended trajectories.
    pub fn can_append(&self) -> bool {
        self.applied < self.full.len()
    }

    /// The next `n` stream trajectories as an append payload (does not
    /// advance `applied` — both sides must ingest it first).
    pub fn next_batch(&self, n: usize) -> Vec<(UserId, Vec<TrajEntry>)> {
        let to = (self.applied + n.max(1)).min(self.full.len());
        (self.applied..to)
            .map(|id| {
                let tr = self.full.get(TrajId(id as u32));
                (tr.user(), tr.entries().to_vec())
            })
            .collect()
    }

    /// Applies the next `n` stream trajectories to the **reference side
    /// only**, returning the batch for the caller to apply to whatever
    /// router is under test (advances `applied`).
    pub fn reference_append_next(&mut self, n: usize) -> Vec<(UserId, Vec<TrajEntry>)> {
        let batch = self.next_batch(n);
        if batch.is_empty() {
            return batch;
        }
        let owned = prepare_batch(
            self.reference.num_trajectories() as u32,
            self.reference.router().num_edges(),
            &batch,
        )
        .expect("reference batch");
        let appended = self.reference.ingest(owned, true).appended;
        assert_eq!(
            appended,
            batch.len(),
            "reference appended a different count"
        );
        self.applied += batch.len();
        batch
    }

    /// Appends up to `n` stream trajectories to BOTH sides and
    /// cross-checks the outcome. Returns the number appended.
    pub fn append_next(&mut self, n: usize) -> usize {
        let batch = self.reference_append_next(n);
        if batch.is_empty() {
            return 0;
        }
        let cluster_appended = self
            .cluster
            .append_batch(None, &batch)
            .expect("cluster append");
        assert_eq!(
            cluster_appended as usize,
            batch.len(),
            "cluster appended a different count"
        );
        assert_eq!(
            self.cluster.num_global() as usize,
            self.reference.num_trajectories(),
            "global counters diverged after append"
        );
        batch.len()
    }

    /// The reference trip answer (the in-process engine over the
    /// sharded index).
    pub fn reference_trip(&self, spq: &Spq) -> TripQuery {
        let engine = QueryEngine::new(&self.reference, &self.network, self.engine_config.clone());
        engine.trip_query(spq)
    }

    /// Asserts the cluster answers the SPQ byte-identically to the
    /// reference index.
    pub fn check_spq(&self, spq: &Spq) {
        self.check_spq_on(&self.cluster, spq);
    }

    /// [`ClusterHarness::check_spq`] against an arbitrary router (e.g. a
    /// failover router over primaries + standbys).
    pub fn check_spq_on(&self, router: &ClusterRouter, spq: &Spq) {
        let want = self.reference.get_travel_times(spq);
        let got = router.travel_times(spq).expect("cluster SPQ");
        assert_eq!(
            bits(&want.values),
            bits(&got.values),
            "cluster SPQ values diverged\nquery: {spq:?}\nreference: {:?}\ncluster: {:?}",
            want.values,
            got.values,
        );
        assert_eq!(
            want.fallback, got.fallback,
            "fallback flag diverged: {spq:?}"
        );
    }

    /// Asserts the cluster's trip answer equals the reference engine's
    /// (stats, histogram, per-sub values — the full structural check).
    pub fn check_trip(&self, spq: &Spq) -> TripQuery {
        self.check_trip_on(&self.cluster, spq)
    }

    /// [`ClusterHarness::check_trip`] against an arbitrary router.
    /// Returns the cluster's answer (for its trace).
    pub fn check_trip_on(&self, router: &ClusterRouter, spq: &Spq) -> TripQuery {
        let want = self.reference_trip(spq);
        let got = router.trip_query(spq).expect("cluster trip");
        assert!(
            wire::encode_trip(&want) == wire::encode_trip(&got),
            "cluster trip diverged\nquery: {spq:?}\nreference: {:?}\ncluster: {:?}",
            want.stats,
            got.stats,
        );
        got
    }

    /// Asserts one ladder RPC (a `LadderBatch` of one) answers like the
    /// level-by-level loop over the reference index (same level, value
    /// bits, fallback flag).
    pub fn check_ladder(&self, spq: &Spq) {
        let levels = ladder_levels(&self.engine_config, spq);
        let want = ladder_sequential(&self.reference, spq, &levels, &mut SearchScratch::new());
        let got = self
            .cluster
            .travel_times_ladder(spq, &levels)
            .expect("cluster ladder");
        assert!(
            ladder_bytes(&want) == ladder_bytes(&got),
            "cluster ladder diverged from the sequential loop\nquery: {spq:?}\n\
             loop:   {want:?}\nladder: {got:?}"
        );
    }

    /// Read RPCs the harness router has routed so far ([`router_rpcs`]).
    pub fn router_rpcs(&self) -> u64 {
        router_rpcs(&self.cluster)
    }

    /// Kills the node serving `shard`. Its store directory stays; use
    /// [`ClusterHarness::restart_node`] to bring the replica back.
    pub fn kill_node(&mut self, shard: usize) {
        self.nodes[shard].kill();
    }

    /// Respawns a killed node from its store directory (snapshot + WAL
    /// replay) on a fresh ephemeral port. Call
    /// [`ClusterHarness::reconnect`] once every node is up so the router
    /// learns the new addresses.
    pub fn respawn_node(&mut self, shard: usize) {
        let dir = self.nodes[shard].dir.clone();
        let args: &[&str] = if self.hot_tail { &["--hot-tail"] } else { &[] };
        self.nodes[shard] = NodeProcess::spawn_with(shard, &dir, args);
    }

    /// [`ClusterHarness::respawn_node`] + [`ClusterHarness::reconnect`]
    /// — for restarting one replica while the rest of the cluster is up.
    pub fn restart_node(&mut self, shard: usize) {
        self.respawn_node(shard);
        self.reconnect();
    }

    /// Rebuilds the router against the nodes' current addresses
    /// (re-running every connect-time consistency cross-check).
    pub fn reconnect(&mut self) {
        self.cluster = ClusterRouter::connect(
            self.network.clone(),
            &self.addrs(),
            self.engine_config.clone(),
            self.client_config.clone(),
        )
        .expect("reconnect cluster");
    }
}

impl Drop for ClusterHarness {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            node.kill();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
