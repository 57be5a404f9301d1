//! Inputs: the synthetic world (the same for every seed), the request
//! streams drawn against it from `--seed`, and the digest that makes a
//! silent change to either visible.
//!
//! The world is a fixture, not a draw: the generator's 120 drivers repeat
//! their commutes daily, so a re-seeded world has ±20 % more or fewer
//! traversals, and ten seeds would measure ten data sets instead of one
//! program.
//!
//! The benchmark owns its generators (it does not import `tthr-bench`'s
//! `World`): the program under test only ever sees the generated
//! trajectories and request bytes.

use std::collections::HashSet;

use tthr::core::{QueryEngine, QueryEngineConfig, SntIndex, Spq, TimeInterval};
use tthr::datagen::{
    generate_network, generate_workload, sample_query_trajectories, NetworkConfig, WorkloadConfig,
};
use tthr::network::RoadNetwork;
use tthr::server::wire;
use tthr::trajectory::{TrajEntry, TrajId, TrajectorySet, UserId};

/// Every size the benchmark uses, in one place. `full()` is what
/// `BENCHMARK.json` runs; `quick()` is the self-test's scaled-down twin
/// (same code paths, seconds instead of minutes).
#[derive(Clone, Debug)]
pub struct Sizing {
    pub network: NetworkConfig,
    pub workload: WorkloadConfig,
    /// Distinct SPQs behind `spq_hot` (1/16 of the default result cache).
    pub spq_distinct: usize,
    /// Distinct trips behind `trip_cold` / `cluster_trip`; the callers
    /// cycle through them in order.
    pub trip_distinct: usize,
    /// Replies compared byte-for-byte with the oracle before each timed run.
    pub precheck: usize,
    /// Trajectories per `/append` batch.
    pub batch: usize,
    /// Hot-tail entry high-water mark on the ingest tier: the size trigger
    /// that paces compaction + retention cycles.
    pub hot_max_entries: usize,
    /// Warm-up before the measured window, seconds.
    pub warmup_s: f64,
    /// Times the tier is set up per run (`setup_s` is their median); cut
    /// short after two once `setup_budget_s` is spent.
    pub setup_reps: usize,
    pub setup_budget_s: f64,
    /// Requests replayed at every boundary by the traced run.
    pub traced_n: usize,
    /// Requests replayed at the trip boundaries (milliseconds each).
    pub traced_trips: usize,
    /// Batches in the write probe that follows a read-only window.
    pub probe_batches: usize,
}

impl Sizing {
    pub fn full() -> Sizing {
        Sizing {
            network: NetworkConfig::medium(),
            workload: WorkloadConfig::medium(),
            spq_distinct: 4096,
            trip_distinct: 3072,
            precheck: 500,
            batch: 256,
            hot_max_entries: 96 * 1024,
            warmup_s: 3.0,
            setup_reps: 3,
            setup_budget_s: 4.0,
            traced_n: 1000,
            traced_trips: 250,
            probe_batches: 96,
        }
    }

    pub fn quick() -> Sizing {
        Sizing {
            network: NetworkConfig::small(),
            workload: WorkloadConfig {
                num_drivers: 40,
                num_days: 60,
                ..WorkloadConfig::small()
            },
            spq_distinct: 512,
            trip_distinct: 512,
            precheck: 200,
            batch: 32,
            hot_max_entries: 4 * 1024,
            warmup_s: 0.3,
            setup_reps: 2,
            setup_budget_s: 4.0,
            traced_n: 200,
            traced_trips: 60,
            probe_batches: 8,
        }
    }
}

/// SplitMix64: the benchmark's own deterministic draw source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a 64: the input digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A raw append payload: what `/append` and `append_new` take.
pub type Payload = Vec<(UserId, Vec<TrajEntry>)>;

/// The generated world.
pub struct World {
    pub network: RoadNetwork,
    pub set: TrajectorySet,
}

impl World {
    pub fn generate(sizing: &Sizing) -> World {
        let syn = generate_network(&sizing.network);
        let set = generate_workload(&syn, &sizing.workload);
        World {
            network: syn.network,
            set,
        }
    }

    /// The chronologically first half (the generator emits day by day, so
    /// id order is time order) as its own dense set: the ingest base.
    pub fn first_half(&self) -> TrajectorySet {
        let mut half = TrajectorySet::new();
        for tr in self.set.iter().take(self.set.len() / 2) {
            half.push(tr.user(), tr.entries().to_vec())
                .expect("copy of a valid trajectory");
        }
        half
    }

    /// The second half cut into `/append` batches, in time order.
    pub fn second_half_batches(&self, batch: usize) -> Vec<Payload> {
        let tail: Vec<_> = self.set.iter().skip(self.set.len() / 2).collect();
        tail.chunks(batch)
            .filter(|c| c.len() == batch)
            .map(|c| {
                c.iter()
                    .map(|tr| (tr.user(), tr.entries().to_vec()))
                    .collect()
            })
            .collect()
    }

    pub fn digest_into(&self, d: &mut Digest) {
        d.u64(self.network.num_edges() as u64);
        d.u64(self.set.len() as u64);
        for tr in self.set.iter() {
            d.u64(tr.user().0 as u64);
            for e in tr.entries() {
                d.u64(e.edge.0 as u64);
                d.u64(e.enter_time as u64);
                d.u64(e.travel_time.to_bits());
            }
        }
    }
}

/// Data span `[first entry, last entry]` of a trajectory set, seconds.
pub fn set_span(set: &TrajectorySet) -> (i64, i64) {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for tr in set.iter() {
        let entries = tr.entries();
        lo = lo.min(entries[0].enter_time);
        hi = hi.max(entries[entries.len() - 1].enter_time);
    }
    (lo, hi)
}

/// `batch` with every timestamp moved `shift` seconds later.
pub fn shifted(batch: &Payload, shift: i64) -> Payload {
    batch
        .iter()
        .map(|(user, entries)| {
            (
                *user,
                entries
                    .iter()
                    .map(|e| TrajEntry::new(e.edge, e.enter_time + shift, e.travel_time))
                    .collect(),
            )
        })
        .collect()
}

/// Which HTTP endpoint a read request goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Spq,
    Trip,
}

impl Endpoint {
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Spq => "/spq",
            Endpoint::Trip => "/trip",
        }
    }
}

/// One distinct read request, encoded once.
pub struct Request {
    pub spq: Spq,
    /// The complete HTTP/1.1 request bytes.
    pub http: Vec<u8>,
    /// Oracle reply body length (filled in by [`crate::check`]).
    pub expect_len: usize,
    /// Oracle reply body, kept for the requests the pre-check compares
    /// byte-for-byte.
    pub expect_body: Option<Vec<u8>>,
}

/// A read workload's request table plus the order the callers visit it in.
pub struct Stream {
    pub endpoint: Endpoint,
    pub requests: Vec<Request>,
    /// Per caller: indices into `requests`, cycled.
    pub order: Vec<Vec<u32>>,
}

impl Stream {
    /// The first `n` request ids of caller 0's sequence: what the pre-check
    /// and the traced run replay.
    pub fn prefix(&self, n: usize) -> Vec<u32> {
        self.order[0].iter().copied().cycle().take(n).collect()
    }

    pub fn digest_into(&self, d: &mut Digest) {
        for r in &self.requests {
            d.bytes(&r.http);
        }
        for o in &self.order {
            for &i in o {
                d.u64(i as u64);
            }
        }
    }
}

pub fn encode_post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: benchmark\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn request(endpoint: Endpoint, spq: Spq) -> Request {
    let http = encode_post(endpoint.path(), wire::encode_spq(&spq).as_bytes());
    Request {
        spq,
        http,
        expect_len: 0,
        expect_body: None,
    }
}

/// Number of callers in the closed loop.
pub const CALLERS: usize = 2;
/// Draws per caller in a Zipf order (cycled if a window outlasts it).
const ZIPF_DRAWS: usize = 1 << 20;
/// β of every query, and the periodic window α_min (seconds).
const BETA: u32 = 20;
const ALPHA_MIN: i64 = 900;

/// Query trajectories in the paper's sense (start after the median, at
/// least 15 segments), thinned evenly to at most `want` and shuffled, so
/// that any stretch of a stream is a random sample of the whole and not
/// one period of the history.
fn query_trajectories(world: &World, seed: u64, want: usize) -> Vec<TrajId> {
    let all = sample_query_trajectories(&world.set, 1.0, 15, seed);
    assert!(!all.is_empty(), "world too small: no query trajectories");
    let step = (all.len() / want).max(1);
    let mut ids: Vec<TrajId> = all.into_iter().step_by(step).take(want).collect();
    let mut rng = Rng::new(seed ^ 0x5AFF_1E00);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids
}

/// `spq_hot`: Zipf(1.0) over the engine's initial π_Z sub-queries of the
/// sampled query trajectories (periodic α_min window, β = 20).
pub fn spq_stream(world: &World, index: &SntIndex, sizing: &Sizing, seed: u64) -> Stream {
    let engine = QueryEngine::new(index, &world.network, QueryEngineConfig::default());
    let mut seen = HashSet::new();
    let mut requests = Vec::with_capacity(sizing.spq_distinct);
    'fill: for id in query_trajectories(world, seed, sizing.spq_distinct) {
        let tr = world.set.get(id);
        let whole = Spq::new(
            tr.path(),
            TimeInterval::periodic_around(tr.start_time(), ALPHA_MIN),
        )
        .with_beta(BETA)
        .without_trajectory(id);
        for sub in engine.initial_subqueries(&whole) {
            let r = request(Endpoint::Spq, sub);
            if seen.insert(r.http.clone()) {
                requests.push(r);
                if requests.len() == sizing.spq_distinct {
                    break 'fill;
                }
            }
        }
    }
    assert!(
        requests.len() >= sizing.spq_distinct / 2,
        "world too small: only {} distinct SPQs",
        requests.len()
    );

    // Zipf(1.0): rank r is drawn with weight 1/(r+1).
    let mut cdf = Vec::with_capacity(requests.len());
    let mut acc = 0.0;
    for r in 0..requests.len() {
        acc += 1.0 / (r + 1) as f64;
        cdf.push(acc);
    }
    let order = (0..CALLERS)
        .map(|c| {
            let mut rng = Rng::new(seed ^ (0xA11C_E000 + c as u64));
            (0..ZIPF_DRAWS)
                .map(|_| {
                    let u = rng.unit() * acc;
                    cdf.partition_point(|&x| x <= u).min(requests.len() - 1) as u32
                })
                .collect()
        })
        .collect();
    Stream {
        endpoint: Endpoint::Spq,
        requests,
        order,
    }
}

/// `trip_cold` / `cluster_trip`: whole query-trajectory paths, the
/// paper's three query types in equal thirds, each request a distinct
/// (trajectory, interval-centre offset) pair. Callers interleave one
/// cycle through the table, so a cache key comes round again only after
/// every other request's keys have passed through the LRU.
pub fn trip_stream(world: &World, sizing: &Sizing, seed: u64) -> Stream {
    let ids = query_trajectories(world, seed, sizing.trip_distinct);
    let mut rng = Rng::new(seed ^ 0x7219_C01D);
    let mut pairs = HashSet::new();
    let mut requests = Vec::with_capacity(sizing.trip_distinct);
    while requests.len() < sizing.trip_distinct {
        let i = requests.len();
        let id = ids[i % ids.len()];
        let offset = rng.below(3600) as i64 - 1800;
        if !pairs.insert((id.0, offset)) {
            continue;
        }
        let tr = world.set.get(id);
        let centre = tr.start_time() + offset;
        let spq = match i % 3 {
            // Temporal filters.
            0 => Spq::new(tr.path(), TimeInterval::periodic_around(centre, ALPHA_MIN)),
            // User filters.
            1 => Spq::new(tr.path(), TimeInterval::periodic_around(centre, ALPHA_MIN))
                .with_user(tr.user()),
            // SPQ only.
            _ => Spq::new(tr.path(), TimeInterval::fixed(0, centre.max(1))),
        }
        .with_beta(BETA)
        .without_trajectory(id);
        requests.push(request(Endpoint::Trip, spq));
    }
    let order = (0..CALLERS)
        .map(|c| {
            (c..requests.len())
                .step_by(CALLERS)
                .map(|i| i as u32)
                .collect()
        })
        .collect();
    Stream {
        endpoint: Endpoint::Trip,
        requests,
        order,
    }
}
