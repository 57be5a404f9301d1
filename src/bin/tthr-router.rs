//! `tthr-router` — the scatter-gather HTTP front-end of a tthr cluster.
//!
//! ```text
//! tthr-router --node <ip:port>[,<standby>…] --node <ip:port>[,<standby>…] … \
//!             [--addr 127.0.0.1:0] [--preset small|medium|large] [--probe-ms <n>]
//! ```
//!
//! Connects to every shard node, cross-checks the cluster's shape, and
//! serves the single-process server's endpoints on its epoll reactor
//! (`/health`, `/spq` with JSON or frame bodies, `/trip`, `/batch`,
//! `/append`, plus the router's own `/metrics`; `/stats` and
//! `/debug/slow` are `404`) by scattering SPQ primitives over the binary
//! protocol. `/health` answers from router state without contacting a
//! node: each shard's replication stamps are the last ones its preferred
//! endpoint reported. SPQs and trip ladders the router has answered are
//! served from its result cache, with no RPC; `/metrics` exports it as
//! `tthr_cache_{hits,misses,evictions,admission_rejected,invalidations}_total`,
//! `tthr_cache_entries` and `tthr_cache_capacity`, next to the router's
//! RPC, failover, breaker and lag series. Every append must go through
//! this router: the cache and the router's append stamps assume it is
//! the cluster's one writer. Each `--node` lists one shard's endpoints: the
//! primary first, then any standby replicas — when a primary dies, reads
//! fail over to the freshest caught-up standby and appends promote it.
//! Trip-query planning needs the road network, which nodes do not ship;
//! the router regenerates it deterministically from the named datagen
//! preset (the same preset the cluster was bootstrapped from).
//!
//! Prints `LISTENING <addr>` on stdout once ready. When stdin reaches
//! EOF, like `tthr-node`, it drains: requests in flight are answered to
//! the last byte, new ones are refused `503`, and the process exits 0.

use std::io::{Read, Write};
use std::net::SocketAddr;

use tthr::client::{ClusterRouter, RouterConfig};
use tthr::core::QueryEngineConfig;
use tthr::datagen::{generate_network, NetworkConfig};
use tthr::server::{cluster, serve_router};

const USAGE: &str = "usage: tthr-router --node <ip:port>[,<standby>…] [--node …] \
     [--addr <ip:port>] [--preset small|medium|large] [--probe-ms <n>]";

fn die(message: &str) -> ! {
    eprintln!("tthr-router: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut nodes: Vec<Vec<SocketAddr>> = Vec::new();
    let mut addr = String::from("127.0.0.1:0");
    let mut preset = String::from("small");
    let mut probe_ms: u64 = 1000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--node" => {
                let value = args.next().unwrap_or_else(|| die("--node needs a value"));
                let group: Vec<SocketAddr> = value
                    .split(',')
                    .map(|part| {
                        part.parse()
                            .unwrap_or_else(|e| die(&format!("bad node address {part:?}: {e}")))
                    })
                    .collect();
                nodes.push(group);
            }
            "--addr" => addr = args.next().unwrap_or_else(|| die("--addr needs a value")),
            "--preset" => preset = args.next().unwrap_or_else(|| die("--preset needs a value")),
            "--probe-ms" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| die("--probe-ms needs a value"));
                probe_ms = value
                    .parse()
                    .unwrap_or_else(|e| die(&format!("bad probe interval {value:?}: {e}")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if nodes.is_empty() {
        die("at least one --node is required");
    }
    let config = match preset.as_str() {
        "small" => NetworkConfig::small(),
        "medium" => NetworkConfig::medium(),
        "large" => NetworkConfig::large(),
        other => die(&format!("unknown preset {other:?}")),
    };
    let network = generate_network(&config).network;
    // Background probing only earns its thread when there are standbys
    // to watch (breaker recovery, lag gauges); `--probe-ms 0` turns it
    // off either way.
    let has_standbys = nodes.iter().any(|group| group.len() > 1);
    let router_config = RouterConfig {
        probe_interval: (probe_ms > 0 && has_standbys)
            .then(|| std::time::Duration::from_millis(probe_ms)),
        ..RouterConfig::default()
    };
    let router = match ClusterRouter::connect_with_standbys(
        network,
        &nodes,
        QueryEngineConfig::default(),
        router_config,
    ) {
        Ok(router) => router,
        Err(e) => die(&format!("cannot assemble cluster: {e}")),
    };
    let (shards, trajectories) = (router.num_shards(), router.num_global());
    let server = match serve_router(router, addr.as_str(), cluster::router_config()) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot serve on {addr}: {e}")),
    };
    let local = server.local_addr();
    eprintln!(
        "tthr-router: {shards} shards, {trajectories} trajectories, serving on http://{local}"
    );
    println!("LISTENING {local}");
    std::io::stdout().flush().ok();

    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    std::process::exit(0);
}
