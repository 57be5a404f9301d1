//! HTTP front-end throughput with `reactors = max(cores, 2)` over
//! loopback: sustained pipelined `/spq` req/s (JSON and the binary frame
//! body) with one connection per reactor — the `SO_REUSEPORT` accept
//! sharding plus the per-reactor epoll loops under concurrent clients.
//! (Single-reactor latency and throughput are `benchmark/`'s `server.*`
//! metrics and `read_ops_s @ spq_hot`.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use tthr_bench::{query_for, QueryType, Scale, World};
use tthr_rpc::{encode_frame, Message};
use tthr_server::{serve, wire, ServerConfig};
use tthr_service::{QueryService, ServiceConfig};

/// Minimal blocking keep-alive client: pipelines `n` identical requests
/// and reads the `n` responses back.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn roundtrip(&mut self, request: &[u8], pipeline: usize) {
        for _ in 0..pipeline {
            self.stream.write_all(request).expect("send");
        }
        for _ in 0..pipeline {
            self.read_response();
        }
    }

    fn read_response(&mut self) {
        loop {
            if let Some(total) = response_len(&self.buf) {
                if self.buf.len() >= total {
                    self.buf.drain(..total);
                    return;
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed mid-benchmark");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn response_len(buf: &[u8]) -> Option<usize> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).expect("head");
    let body = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    Some(head_end + 4 + body)
}

fn encode_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Serializes a binary `/spq` request carrying one `tthr-rpc` frame.
fn encode_frame_request(frame: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /spq HTTP/1.1\r\nhost: bench\r\ncontent-type: application/x-tthr-frame\r\ncontent-length: {}\r\n\r\n",
        frame.len()
    )
    .into_bytes();
    out.extend_from_slice(frame);
    out
}

fn bench_multireactor_throughput(c: &mut Criterion) {
    let reactors = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let world = World::generate(Scale::Small);
    let service = QueryService::new(
        world.build_index(Default::default()),
        Arc::new(world.network().clone()),
        ServiceConfig {
            num_threads: 4,
            ..ServiceConfig::default()
        },
    );
    let config = ServerConfig {
        reactors,
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("boot server");
    let addr = server.local_addr();
    let spq = query_for(
        &world.set,
        world.queries[0],
        QueryType::TemporalFilters,
        900,
        20,
    );
    let spq_request = encode_request("/spq", wire::encode_spq(&spq).as_bytes());
    let frame_request = encode_frame_request(&encode_frame(&Message::TravelTimes(spq.clone())));

    let group_name = format!("server_http_multireactor_x{reactors}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(10);
    group.throughput(Throughput::Elements((reactors * 32) as u64));
    let mut clients: Vec<Client> = (0..reactors).map(|_| Client::connect(addr)).collect();
    group.bench_function("spq_pipelined_x32_per_conn", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for client in &mut clients {
                    s.spawn(|| client.roundtrip(&spq_request, 32));
                }
            })
        })
    });
    group.bench_function("spq_frame_pipelined_x32_per_conn", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for client in &mut clients {
                    s.spawn(|| client.roundtrip(&frame_request, 32));
                }
            })
        })
    });
    group.finish();

    server.shutdown();
}

criterion_group!(benches, bench_multireactor_throughput);
criterion_main!(benches);
