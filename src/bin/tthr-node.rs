//! `tthr-node` — one shard of a tthr cluster, served over the binary
//! protocol.
//!
//! ```text
//! tthr-node --dir <store-dir> [--addr 127.0.0.1:0] [--standby-of <ip:port>] [--hot-tail]
//! ```
//!
//! Without `--standby-of`, the store directory must have been
//! initialised (snapshot + WAL) by the cluster bootstrap — see
//! `examples/cluster.rs`. On startup the node restores its snapshot,
//! replays the WAL, prints `LISTENING <addr>` on stdout (so harnesses
//! binding port 0 can discover the real address), and serves until
//! killed — or until its stdin reaches EOF, so nodes spawned by a test
//! harness die with their parent instead of leaking.
//!
//! With `--standby-of <primary-addr>`, the node runs as a warm read
//! replica: an empty directory bootstraps by shipping the primary's
//! snapshot; an existing one reopens and resumes from its local stamp.
//! Either way it then tails the primary's WAL, serves reads at its
//! applied stamp, refuses appends, and accepts a `Promote` request to
//! take over as primary (e.g. from the failover router).
//!
//! With `--hot-tail`, appends are absorbed into the index's hot tail
//! (cheap ingest, no per-append FM/wavelet work) and sealed at the next
//! snapshot rotation; answers are byte-identical either way, so the flag
//! is purely an ingest-cost knob.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};

use tthr::server::node::{serve_node, NodeStore};
use tthr::server::standby::serve_standby;

const USAGE: &str =
    "usage: tthr-node --dir <store-dir> [--addr <ip:port>] [--standby-of <ip:port>] [--hot-tail]";

fn die(message: &str) -> ! {
    eprintln!("tthr-node: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut dir: Option<String> = None;
    let mut addr = String::from("127.0.0.1:0");
    let mut standby_of: Option<String> = None;
    let mut hot_tail = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = Some(args.next().unwrap_or_else(|| die("--dir needs a value"))),
            "--addr" => addr = args.next().unwrap_or_else(|| die("--addr needs a value")),
            "--standby-of" => {
                standby_of = Some(
                    args.next()
                        .unwrap_or_else(|| die("--standby-of needs a value")),
                )
            }
            "--hot-tail" => hot_tail = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let dir = dir.unwrap_or_else(|| die("--dir is required"));
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");

    // Die with the parent: when whoever spawned us closes our stdin (or
    // exits), serving stops. Test harnesses rely on this to never leak
    // node processes.
    std::thread::spawn(|| {
        let mut sink = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut sink) {
                Ok(0) | Err(_) => std::process::exit(0),
                Ok(_) => {}
            }
        }
    });

    if let Some(primary) = standby_of {
        let primary: SocketAddr = primary
            .parse()
            .unwrap_or_else(|e| die(&format!("--standby-of {primary:?}: {e}")));
        let announce = move |store: &NodeStore| {
            eprintln!(
                "tthr-node: standby for shard {} of {} (applied stamp {}) on {local}, \
                 tailing {primary}",
                store.state().shard(),
                store.state().num_shards(),
                store.applied_stamp(),
            );
            println!("LISTENING {local}");
            std::io::stdout().flush().ok();
        };
        if let Err(e) = serve_standby(listener, &dir, primary, announce) {
            eprintln!("tthr-node: standby failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let mut store = match NodeStore::open(&dir) {
        Ok(store) => store,
        Err(e) => die(&format!("cannot open store {dir:?}: {e}")),
    };
    store.set_hot_tail(hot_tail);
    eprintln!(
        "tthr-node: shard {} of {} ({} trajectories indexed{}) on {local}",
        store.state().shard(),
        store.state().num_shards(),
        store.state().members().len(),
        if hot_tail { ", hot-tail ingest" } else { "" },
    );
    println!("LISTENING {local}");
    std::io::stdout().flush().ok();

    if let Err(e) = serve_node(listener, store) {
        eprintln!("tthr-node: accept loop failed: {e}");
        std::process::exit(1);
    }
}
