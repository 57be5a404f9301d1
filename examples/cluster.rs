//! Boot a complete shard-per-process cluster topology in one command:
//! two shard nodes (each its own snapshot + WAL + binary-protocol
//! listener), the scatter-gather router in front, and the cluster HTTP
//! endpoint on top.
//!
//! Run with: `cargo run --release --example cluster`
//!
//! For a *real* multi-process deployment the node threads below become
//! `tthr-node --dir <store-dir>` processes and the front-end becomes
//! `tthr-router --node <addr> --node <addr>` — same stores, same wire
//! protocol, same answers (that path is what `tests/cluster_equivalence.rs`
//! exercises). This example keeps everything in one process tree so
//! `cargo run` works anywhere.
//!
//! ```text
//! curl http://127.0.0.1:7879/health
//! curl -d '{"path":[0,1],"interval":{"type":"fixed","start":0,"end":86400}}' \
//!      http://127.0.0.1:7879/trip
//! ```

use std::net::TcpListener;

use tthr::client::{ClientConfig, ClusterRouter};
use tthr::core::{
    QueryEngineConfig, ShardNodeState, ShardedSntIndex, SntConfig, Spq, TimeInterval,
};
use tthr::datagen::{generate_network, generate_workload, NetworkConfig, WorkloadConfig};
use tthr::server::cluster::router_config;
use tthr::server::node::{serve_node, NodeStore};
use tthr::server::{serve_router, wire};
use tthr::trajectory::TrajId;

const K: usize = 2;

fn main() {
    // --- A synthetic world ---------------------------------------------------
    let syn = generate_network(&NetworkConfig::small());
    let set = generate_workload(&syn, &WorkloadConfig::small());
    let network = syn.network;
    println!(
        "world: {} edges, {} trajectories, {} shards",
        network.num_edges(),
        set.len(),
        K
    );

    // --- Bootstrap: build once, export each shard as a node store ------------
    let sharded = ShardedSntIndex::build(&network, &set, SntConfig::default(), K);
    let base = std::env::temp_dir().join(format!("tthr-cluster-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut addrs = Vec::new();
    for shard in 0..K {
        let dir = base.join(format!("node{shard}"));
        let store = NodeStore::init(&dir, ShardNodeState::export_from(&sharded, shard))
            .expect("init node store");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
        let addr = listener.local_addr().expect("node addr");
        println!(
            "node {shard}: binary protocol on {addr}, store in {}",
            dir.display()
        );
        addrs.push(addr);
        std::thread::spawn(move || serve_node(listener, store));
    }

    // --- The scatter-gather router -------------------------------------------
    let router = ClusterRouter::connect(
        network,
        &addrs,
        QueryEngineConfig::default(),
        ClientConfig::default(),
    )
    .expect("assemble cluster");
    for shard in router.health() {
        if let Some(status) = shard.status {
            println!(
                "shard {} at {}: {}, applied stamp {}",
                shard.shard, shard.addr, status.role, status.applied_stamp
            );
        }
    }

    // One trip query through the whole stack, to prove it breathes.
    let tr = set.get(TrajId(0));
    let spq = Spq::new(
        tr.path().sub_path(0..tr.len().min(3)),
        TimeInterval::fixed(0, i64::MAX / 4),
    );
    let trip = router.trip_query(&spq).expect("scatter-gather trip");
    println!(
        "demo trip over {} sub-queries: {} index scans, {} estimate fallbacks",
        trip.subs.len(),
        trip.stats.index_queries,
        trip.stats.estimate_fallbacks,
    );

    // --- The cluster HTTP endpoint -------------------------------------------
    let addr_env = std::env::var("TTHR_ADDR").unwrap_or_else(|_| "127.0.0.1:7879".to_string());
    let server = serve_router(router, addr_env.as_str(), router_config())
        .expect("binding the router address (override with TTHR_ADDR)");
    let addr = server.local_addr();
    println!("tthr cluster router listening on http://{addr}");
    println!("\ntry it:");
    println!("  curl http://{addr}/health");
    println!("  curl -d '{}' http://{addr}/spq", wire::encode_spq(&spq));
    println!("  curl -d '{}' http://{addr}/trip", wire::encode_spq(&spq));
    loop {
        std::thread::park();
    }
}
