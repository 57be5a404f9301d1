//! The cache's brute-force oracle.
//!
//! Random sequences of probe, get, insert, `clear` and `clear_where` run
//! against [`ShardedCache`] and against a plain model written for clarity
//! rather than speed: per shard, a `Vec` of entries in recency order and a
//! `Vec` of doorkeeper sightings. Every answer and every counter must
//! agree after every step, over several shards and tiny capacities.
//!
//! A second leg builds both with a constant hasher, so every key collides
//! with every other: there a collision must be a miss or a replacement,
//! and no lookup may ever answer another key's value.
//!
//! Generation is seeded from each test's name; `TTHR_DIFF_SEED` re-seeds
//! both legs, which the nightly job does to run them on a fresh stream.

use super::*;
use proptest::TestRng;
use tthr_core::TimeInterval;
use tthr_network::{EdgeId, Path};

/// Generated operation sequences per leg.
const CASES: usize = 64;
/// Operations per sequence.
const STEPS: usize = 400;

/// One shard of the model.
#[derive(Default)]
struct ModelShard {
    /// `(hash, key, value)`, most recently used first.
    entries: Vec<(u64, Spq, TravelTimes)>,
    /// Hashes refused once since the window opened.
    door: Vec<u64>,
}

/// The specification of [`ShardedCache`].
struct Model<S> {
    hasher: S,
    shards: Vec<ModelShard>,
    capacity: usize,
    counters: CacheCounters,
}

impl<S: BuildHasher> Model<S> {
    fn new(shards: usize, capacity: usize, hasher: S) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        Model {
            hasher,
            shards: (0..shards).map(|_| ModelShard::default()).collect(),
            capacity: per_shard,
            counters: CacheCounters {
                capacity: per_shard * shards,
                ..CacheCounters::default()
            },
        }
    }

    /// The key's hash and the shard its high bits pick.
    fn route(&self, key: &Spq) -> (u64, usize) {
        let hash = self.hasher.hash_one(key);
        let shard = (u128::from(hash) * self.shards.len() as u128) >> 64;
        (hash, shard as usize)
    }

    fn probe(&mut self, key: &Spq) -> Option<TravelTimes> {
        if self.capacity == 0 {
            return None;
        }
        let (hash, s) = self.route(key);
        let entries = &mut self.shards[s].entries;
        let at = entries
            .iter()
            .position(|(h, k, _)| *h == hash && k == key)?;
        let entry = entries.remove(at);
        let value = entry.2.clone();
        entries.insert(0, entry);
        self.counters.hits += 1;
        Some(value)
    }

    fn get(&mut self, key: &Spq) -> Option<TravelTimes> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.counters.misses += 1;
        }
        hit
    }

    fn insert(&mut self, key: &Spq, value: &TravelTimes) {
        if self.capacity == 0 {
            return;
        }
        let (hash, s) = self.route(key);
        let shard = &mut self.shards[s];
        if let Some(at) = shard.entries.iter().position(|(h, ..)| *h == hash) {
            // The same key, or another with its hash: replaced either way.
            shard.entries.remove(at);
        } else if shard.entries.len() >= self.capacity {
            match shard.door.iter().position(|&h| h == hash) {
                Some(seen) => {
                    shard.door.remove(seen);
                    shard.entries.pop();
                    self.counters.evictions += 1;
                }
                None => {
                    if shard.door.len() >= self.capacity {
                        shard.door.clear();
                    }
                    shard.door.push(hash);
                    self.counters.rejected += 1;
                    return;
                }
            }
        }
        shard.entries.insert(0, (hash, key.clone(), value.clone()));
    }

    fn clear_where(&mut self, pred: impl Fn(&Spq) -> bool) -> usize {
        let mut removed = 0;
        for shard in &mut self.shards {
            let before = shard.entries.len();
            shard.entries.retain(|(_, k, _)| !pred(k));
            removed += before - shard.entries.len();
        }
        self.counters.invalidations += 1;
        removed
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self.shards.iter().map(|s| s.entries.len()).sum(),
            ..self.counters
        }
    }
}

/// A hasher that sends every key to one hash.
#[derive(Clone)]
struct Constant(u64);

impl BuildHasher for Constant {
    type Hasher = Constant;

    fn build_hasher(&self) -> Constant {
        self.clone()
    }
}

impl Hasher for Constant {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {}
}

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }
}

/// Runs `case` over [`CASES`] generated inputs.
fn cases(name: &str, mut case: impl FnMut(&mut Gen)) {
    let seed = std::env::var("TTHR_DIFF_SEED").unwrap_or_default();
    let mut gen = Gen(TestRng::from_name(&format!("{name}-{seed}")));
    for _ in 0..CASES {
        case(&mut gen);
    }
}

/// Key `i` of a small universe: edges and windows both vary.
fn key(i: u64) -> Spq {
    let start = (i % 3) as i64 * 100;
    Spq::new(
        Path::new(vec![EdgeId((i / 3) as u32)]),
        TimeInterval::fixed(start, start + 50),
    )
}

/// Drives one random sequence through the cache and the model, checking
/// every answer and the counters after every step. `latest` holds the
/// value each key was last given, so a hit can be checked against what
/// was stored under that very key.
fn run<S: BuildHasher + Clone>(gen: &mut Gen, hasher: S) {
    let shards = 1 + gen.below(4) as usize;
    let capacity = gen.below(13) as usize;
    let universe = 4 + gen.below(24);
    let cache = ShardedCache::with_hasher(shards, capacity, hasher.clone());
    let mut model = Model::new(shards, capacity, hasher);
    let mut latest: HashMap<Spq, TravelTimes> = HashMap::new();
    let mut trail = Vec::new();
    for step in 0..STEPS as u64 {
        let k = key(gen.below(universe));
        let op = gen.below(20);
        // Only the `clear_where` arm reads it.
        let edge = gen.below(universe.div_ceil(3)) as u32;
        trail.push(match op {
            0..=6 => format!("get {k:?}"),
            7..=9 => format!("probe {k:?}"),
            10..=17 => format!("insert {k:?}"),
            18 => "clear".to_string(),
            _ => format!("clear_where edge <= {edge}"),
        });
        let ctx = || format!("{shards} shards, capacity {capacity}, steps {trail:#?}");
        let answer = match op {
            0..=6 => Some((cache.get(cache.hash(&k), &k), model.get(&k))),
            7..=9 => Some((cache.probe(cache.hash(&k), &k), model.probe(&k))),
            10..=17 => {
                let value = TravelTimes {
                    values: vec![step as f64].into(),
                    fallback: false,
                };
                cache.insert(cache.hash(&k), &k, &value);
                model.insert(&k, &value);
                latest.insert(k.clone(), value);
                None
            }
            18 => {
                cache.clear();
                model.clear_where(|_| true);
                latest.clear();
                None
            }
            _ => {
                let pred = |q: &Spq| q.path.first().0 <= edge;
                assert_eq!(
                    cache.clear_where(pred),
                    model.clear_where(pred),
                    "{}",
                    ctx()
                );
                latest.retain(|q, _| !pred(q));
                None
            }
        };
        if let Some((got, want)) = answer {
            assert_eq!(got, want, "{}", ctx());
            if let Some(hit) = &got {
                assert_eq!(Some(hit), latest.get(&k), "another key's value: {}", ctx());
            }
        }
        assert_eq!(cache.counters(), model.counters(), "{}", ctx());
    }
}

#[test]
fn cache_matches_the_model() {
    cases("cache_matches_the_model", |gen| {
        run(gen, RandomState::new())
    });
}

#[test]
fn colliding_keys_never_answer_for_each_other() {
    cases("colliding_keys_never_answer_for_each_other", |gen| {
        let hash = gen.0.next_u64();
        run(gen, Constant(hash));
    });
}
