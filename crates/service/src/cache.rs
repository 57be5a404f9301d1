//! Sharded result cache for SPQ results.
//!
//! The cache key is the whole [`Spq`] — path, interval, filter, β, and
//! exclusion — because [`SntIndex::get_travel_times`] is a pure function of
//! `(index state, query)`; see `tthr_core::Spq`'s `Hash` impl. Index
//! mutations invalidate either the whole cache (`ShardedCache::clear`,
//! monolithic backends) or exactly the entries routing to the written
//! index shards (`ShardedCache::clear_where`, partitioned backends).
//!
//! **One hash per key.** A caller hashes a key once with
//! `ShardedCache::hash` — the cache's own keyed hasher (`RandomState` by
//! default: request keys come from sockets) — and hands that `u64` to every
//! call for the key. Its high bits pick the shard (independently locked,
//! so concurrent workers rarely contend); inside the shard the same `u64`
//! indexes the table, and a hit is confirmed by comparing the one stored
//! copy of the key. A 64-bit collision is therefore a miss, or on insert a
//! replacement, and never another key's answer. A node stores its key once,
//! next to its hash, so eviction removes the table entry by that hash.
//!
//! **Admission.** A shard that is not full admits every insert and evicts
//! nothing. Once it is full, a new key is admitted — evicting the shard's
//! least-recently-used entry — only on its **second** sighting within a
//! doorkeeper window of the shard's capacity: TinyLFU's doorkeeper
//! (Einziger et al., ACM ToS 2017). A stream of distinct keys wider than
//! the cache then stops churning it, and a refused insert costs one
//! doorkeeper probe, with no clone.
//!
//! [`SntIndex::get_travel_times`]: tthr_core::SntIndex::get_travel_times

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tthr_core::{Spq, TravelTimes};

#[cfg(test)]
mod oracle;

/// Monotonic counters describing cache behaviour since construction.
///
/// Counters are cumulative and never reset by `ShardedCache::clear`;
/// rates derived from them (hit rate) describe the service's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Inserts refused by the doorkeeper: a new key's first sighting in a
    /// full shard.
    pub rejected: u64,
    /// Whole-cache invalidations (index updates).
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total entry capacity.
    pub capacity: usize,
}

impl CacheCounters {
    /// Hits over lookups, in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The hasher of a shard's table and doorkeeper, whose keys already are
/// keyed hashes: it takes the `u64` as is. Rotated so the high bits, which
/// picked the shard and so are nearly constant within it, do not become
/// the table's 7-bit probe tags.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard table is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type ByHash = BuildHasherDefault<Prehashed>;

/// Doubly linked LRU list over a slab, most-recent at `head`.
struct Shard {
    /// Key hash → the slab index of its node.
    table: HashMap<u64, usize, ByHash>,
    slab: Vec<Node>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    /// Hashes refused once since the doorkeeper window opened; the window
    /// closes (the set empties) when it holds the shard's capacity.
    door: HashSet<u64, ByHash>,
}

struct Node {
    hash: u64,
    key: Spq,
    value: TravelTimes,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// What an insert into a shard did.
enum Insert {
    /// Stored, or refreshed in place; nothing displaced.
    Stored,
    /// Stored in place of the least-recently-used entry.
    Evicted,
    /// Refused: the key's first sighting in a full shard.
    Rejected,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            table: HashMap::with_capacity_and_hasher(capacity, ByHash::default()),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            door: HashSet::default(),
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Stores (or refreshes) an entry under the admission rule, cloning the
    /// key and value only if it is stored.
    fn insert(&mut self, capacity: usize, hash: u64, key: &Spq, value: &TravelTimes) -> Insert {
        if let Some(&i) = self.table.get(&hash) {
            // The key itself, or a 64-bit collision: either way the
            // newcomer takes the node over.
            let node = &mut self.slab[i];
            if node.key != *key {
                node.key = key.clone();
            }
            node.value = value.clone();
            self.touch(i);
            return Insert::Stored;
        }
        let mut outcome = Insert::Stored;
        if self.table.len() >= capacity {
            if !self.door.remove(&hash) {
                if self.door.len() >= capacity {
                    self.door.clear();
                }
                self.door.insert(hash);
                return Insert::Rejected;
            }
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.table.remove(&self.slab[lru].hash);
            self.free.push(lru);
            outcome = Insert::Evicted;
        }
        let node = Node {
            hash,
            key: key.clone(),
            value: value.clone(),
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.push_front(i);
        self.table.insert(hash, i);
        outcome
    }

    fn get(&mut self, hash: u64, key: &Spq) -> Option<TravelTimes> {
        let i = *self.table.get(&hash)?;
        if self.slab[i].key != *key {
            return None;
        }
        self.touch(i);
        Some(self.slab[i].value.clone())
    }

    /// Drops every entry, keeping the allocations. The doorkeeper's
    /// sightings stay: they describe the request stream, not the index.
    fn clear(&mut self) {
        self.table.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The service's result-cache shard (lock) count.
pub(crate) const CACHE_SHARDS: usize = 16;

/// A sharded LRU map from [`Spq`] to [`TravelTimes`] with second-sighting
/// admission once a shard is full (see the module docs).
///
/// `S` is the key hasher; the default `RandomState` is keyed per cache.
pub(crate) struct ShardedCache<S = RandomState> {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hasher: S,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
    invalidations: AtomicU64,
}

impl ShardedCache {
    /// A cache of ~`capacity` total entries over `shards` locks. A zero
    /// capacity disables caching (every lookup misses, inserts are
    /// dropped).
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        Self::with_hasher(shards, capacity, RandomState::new())
    }
}

impl<S: BuildHasher> ShardedCache<S> {
    /// [`ShardedCache::new`] with the given key hasher.
    pub(crate) fn with_hasher(shards: usize, capacity: usize, hasher: S) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard_capacity)))
                .collect(),
            per_shard_capacity,
            hasher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The key's hash: computed once per key by the caller and passed to
    /// every other call for that key.
    pub(crate) fn hash(&self, key: &Spq) -> u64 {
        self.hasher.hash_one(key)
    }

    /// The shard a hash routes to: its high bits, scaled to the shard
    /// count.
    fn shard_of(&self, hash: u64) -> usize {
        ((u128::from(hash) * self.shards.len() as u128) >> 64) as usize
    }

    fn shard(&self, hash: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[self.shard_of(hash)]
            .lock()
            .expect("cache shard")
    }

    /// Looks a query up, refreshing its recency on a hit; counts the hit
    /// or the miss. `hash` is [`ShardedCache::hash`] of `key`.
    pub(crate) fn get(&self, hash: u64, key: &Spq) -> Option<TravelTimes> {
        let hit = self.probe(hash, key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`ShardedCache::get`] that counts only a hit: for a caller whose
    /// miss falls through to one that looks the query up again with
    /// [`ShardedCache::get`], so every request counts once.
    pub(crate) fn probe(&self, hash: u64, key: &Spq) -> Option<TravelTimes> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let hit = self.shard(hash).get(hash, key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Stores a result under the admission rule: a shard that is not full
    /// takes it; a full one takes it only on the key's second sighting,
    /// evicting its least-recently-used entry. Key and value are cloned
    /// only when stored. `hash` is [`ShardedCache::hash`] of `key`.
    pub(crate) fn insert(&self, hash: u64, key: &Spq, value: &TravelTimes) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let outcome = self
            .shard(hash)
            .insert(self.per_shard_capacity, hash, key, value);
        match outcome {
            Insert::Stored => {}
            Insert::Evicted => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            Insert::Rejected => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every entry (index-update invalidation), emptying the shards
    /// in place.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard").clear();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops exactly the entries whose key matches `pred`, leaving every
    /// other entry (and its recency) untouched — the scoped invalidation
    /// a partitioned index uses when an append wrote only some shards.
    /// Returns the number of entries removed; counts one invalidation.
    pub(crate) fn clear_where(&self, pred: impl Fn(&Spq) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard");
            // One pass over the table, no key clones or re-hashing: extract
            // the victims' slab indices, then unlink their LRU nodes.
            let Shard { table, slab, .. } = &mut *shard;
            let victims: Vec<usize> = table
                .extract_if(|_, i| pred(&slab[*i].key))
                .map(|(_, i)| i)
                .collect();
            for &i in &victims {
                shard.unlink(i);
                shard.free.push(i);
            }
            removed += victims.len();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        removed
    }

    /// Snapshot of the counters.
    pub(crate) fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard").table.len())
                .sum(),
            capacity: self.per_shard_capacity * self.shards.len(),
        }
    }
}

#[cfg(test)]
impl ShardedCache {
    /// The shard a query's entry lives in; [`ShardedCache::clear`] sweeps
    /// shards in index order.
    pub(crate) fn shard_index(&self, key: &Spq) -> usize {
        self.shard_of(self.hash(key))
    }

    /// Holds shard `i`'s lock until the returned guard drops: a
    /// [`ShardedCache::clear`] started meanwhile stalls at shard `i`.
    pub(crate) fn hold_shard(&self, i: usize) -> impl Sized + '_ {
        self.shards[i].lock().expect("cache shard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_core::TimeInterval;
    use tthr_network::{EdgeId, Path};

    fn q(edge: u32, start: i64) -> Spq {
        Spq::new(
            Path::new(vec![EdgeId(edge)]),
            TimeInterval::fixed(start, start + 10),
        )
    }

    fn v(x: f64) -> TravelTimes {
        TravelTimes {
            values: vec![x].into(),
            fallback: false,
        }
    }

    fn get(cache: &ShardedCache, key: &Spq) -> Option<TravelTimes> {
        cache.get(cache.hash(key), key)
    }

    fn probe(cache: &ShardedCache, key: &Spq) -> Option<TravelTimes> {
        cache.probe(cache.hash(key), key)
    }

    fn put(cache: &ShardedCache, key: &Spq, value: TravelTimes) {
        cache.insert(cache.hash(key), key, &value);
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = ShardedCache::new(4, 64);
        assert_eq!(get(&cache, &q(0, 0)), None);
        put(&cache, &q(0, 0), v(1.0));
        assert_eq!(get(&cache, &q(0, 0)), Some(v(1.0)));
        // Same path, different interval is a different key.
        assert_eq!(get(&cache, &q(0, 5)), None);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 2, 1));
        assert!(c.hit_rate() > 0.3 && c.hit_rate() < 0.4);
    }

    /// A probe refreshes recency and counts its hit, but leaves a miss
    /// uncounted for the lookup that follows it; the recency it refreshes
    /// decides what a second-sighting admission evicts.
    #[test]
    fn probe_counts_only_hits() {
        let cache = ShardedCache::new(1, 2);
        assert_eq!(probe(&cache, &q(0, 0)), None);
        assert_eq!(cache.counters().misses, 0);
        put(&cache, &q(0, 0), v(0.0));
        put(&cache, &q(1, 0), v(1.0));
        assert_eq!(probe(&cache, &q(0, 0)), Some(v(0.0)), "refresh key 0");
        put(&cache, &q(2, 0), v(2.0));
        put(&cache, &q(2, 0), v(2.0));
        assert_eq!(probe(&cache, &q(1, 0)), None, "key 1 was LRU");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 0));
        assert_eq!(probe(&ShardedCache::new(4, 0), &q(0, 0)), None);
    }

    /// A full shard refuses a new key's first insert and admits its
    /// second, evicting the least-recently-used entry.
    #[test]
    fn lru_evicts_oldest_within_shard() {
        let cache = ShardedCache::new(1, 2);
        put(&cache, &q(0, 0), v(0.0));
        put(&cache, &q(1, 0), v(1.0));
        assert!(get(&cache, &q(0, 0)).is_some(), "refresh key 0");
        put(&cache, &q(2, 0), v(2.0));
        assert_eq!(get(&cache, &q(2, 0)), None, "first sighting refused");
        let c = cache.counters();
        assert_eq!((c.entries, c.evictions, c.rejected), (2, 0, 1));
        put(&cache, &q(2, 0), v(2.0));
        assert_eq!(get(&cache, &q(1, 0)), None, "key 1 was LRU");
        assert!(get(&cache, &q(0, 0)).is_some());
        assert!(get(&cache, &q(2, 0)).is_some());
        let c = cache.counters();
        assert_eq!((c.entries, c.evictions, c.rejected), (2, 1, 1));
    }

    /// The doorkeeper forgets: a window holds the shard's capacity in
    /// sightings, and the next refusal starts a new one.
    #[test]
    fn doorkeeper_window_is_the_shard_capacity() {
        let cache = ShardedCache::new(1, 2);
        put(&cache, &q(0, 0), v(0.0));
        put(&cache, &q(1, 0), v(1.0));
        put(&cache, &q(2, 0), v(2.0));
        put(&cache, &q(3, 0), v(3.0));
        // The window is full: this sighting closes it and opens a new one.
        put(&cache, &q(4, 0), v(4.0));
        put(&cache, &q(2, 0), v(2.0));
        assert_eq!(get(&cache, &q(2, 0)), None, "key 2's sighting expired");
        put(&cache, &q(4, 0), v(4.0));
        assert_eq!(get(&cache, &q(4, 0)), Some(v(4.0)), "second sighting");
        let c = cache.counters();
        assert_eq!((c.evictions, c.rejected), (1, 4));
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = ShardedCache::new(1, 2);
        put(&cache, &q(0, 0), v(0.0));
        put(&cache, &q(0, 0), v(9.0));
        assert_eq!(get(&cache, &q(0, 0)), Some(v(9.0)));
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn clear_invalidates_everything() {
        let cache = ShardedCache::new(4, 64);
        for i in 0..32 {
            put(&cache, &q(i, 0), v(i as f64));
        }
        assert!(cache.counters().entries > 0);
        cache.clear();
        assert_eq!(cache.counters().entries, 0);
        assert_eq!(cache.counters().invalidations, 1);
        assert_eq!(get(&cache, &q(3, 0)), None);
        // The emptied shards take new entries.
        put(&cache, &q(3, 0), v(3.0));
        assert_eq!(get(&cache, &q(3, 0)), Some(v(3.0)));
    }

    #[test]
    fn clear_where_scopes_eviction_and_preserves_survivors() {
        let cache = ShardedCache::new(4, 64);
        for i in 0..16 {
            put(&cache, &q(i, 0), v(i as f64));
        }
        let removed = cache.clear_where(|k| k.path.first().0 < 8);
        assert_eq!(removed, 8);
        assert_eq!(cache.counters().entries, 8);
        assert_eq!(cache.counters().invalidations, 1);
        assert_eq!(get(&cache, &q(3, 0)), None, "matching entry evicted");
        assert_eq!(get(&cache, &q(12, 0)), Some(v(12.0)), "survivor intact");
        // Freed slots are reused without growing the slab.
        put(&cache, &q(3, 0), v(33.0));
        assert_eq!(get(&cache, &q(3, 0)), Some(v(33.0)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ShardedCache::new(4, 0);
        put(&cache, &q(0, 0), v(1.0));
        assert_eq!(get(&cache, &q(0, 0)), None);
        assert_eq!(cache.counters().entries, 0);
        assert_eq!(cache.counters().rejected, 0);
    }

    /// Keys seen twice displace resident ones once the shards are full;
    /// keys seen once never do.
    #[test]
    fn stress_many_keys_stays_within_capacity() {
        let cache = ShardedCache::new(8, 128);
        for round in 0..4 {
            for i in 0..512 {
                put(&cache, &q(i, round), v(i as f64));
                if i % 2 == 0 {
                    put(&cache, &q(i, round), v(i as f64));
                }
                let _ = get(&cache, &q(i / 2, round));
            }
        }
        let c = cache.counters();
        assert!(c.entries <= c.capacity, "{} > {}", c.entries, c.capacity);
        assert!(c.evictions > 0);
        assert!(c.rejected > 0);
    }
}
