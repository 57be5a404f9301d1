//! Sharded LRU cache for SPQ results.
//!
//! The cache key is the whole [`Spq`] — path, interval, filter, β, and
//! exclusion — because [`SntIndex::get_travel_times`] is a pure function of
//! `(index state, query)`; see `tthr_core::Spq`'s `Hash` impl. Entries are
//! spread over `shards` independently locked LRU maps (keyed by the query's
//! hash), so concurrent workers rarely contend on the same `Mutex`. Index
//! mutations invalidate either the whole cache ([`ShardedCache::clear`],
//! monolithic backends) or exactly the entries routing to the written
//! index shards ([`ShardedCache::clear_where`], partitioned backends).
//!
//! [`SntIndex::get_travel_times`]: tthr_core::SntIndex::get_travel_times

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tthr_core::{Spq, TravelTimes};

/// Monotonic counters describing cache behaviour since construction.
///
/// Counters are cumulative and never reset by [`ShardedCache::clear`];
/// rates derived from them (hit rate) describe the service's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
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

/// Doubly linked LRU list over a slab, most-recent at `head`.
struct Shard {
    map: HashMap<Spq, usize>,
    slab: Vec<Node>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
}

struct Node {
    key: Spq,
    value: TravelTimes,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
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

    /// Inserts (or refreshes) an entry; returns whether an eviction
    /// happened.
    fn insert(&mut self, capacity: usize, key: Spq, value: TravelTimes) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            self.touch(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old = self.slab[lru].key.clone();
            self.map.remove(&old);
            self.free.push(lru);
            evicted = true;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i].key = key.clone();
                self.slab[i].value = value;
                i
            }
            None => {
                self.slab.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
        evicted
    }

    fn get(&mut self, key: &Spq) -> Option<TravelTimes> {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(self.slab[i].value.clone())
    }
}

/// A sharded LRU map from [`Spq`] to [`TravelTimes`].
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl ShardedCache {
    /// A cache of ~`capacity` total entries over `shards` locks. A zero
    /// capacity disables caching (every lookup misses, inserts are
    /// dropped).
    pub fn new(shards: usize, capacity: usize) -> Self {
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The shard a query's entry lives in; [`ShardedCache::clear`] sweeps
    /// shards in index order.
    pub(crate) fn shard_index(&self, key: &Spq) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn shard_of(&self, key: &Spq) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks a query up, refreshing its recency on a hit; counts the hit
    /// or the miss.
    pub fn get(&self, key: &Spq) -> Option<TravelTimes> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`ShardedCache::get`] that counts only a hit: for a caller whose
    /// miss falls through to one that looks the query up again with
    /// [`ShardedCache::get`], so every request counts once.
    pub fn probe(&self, key: &Spq) -> Option<TravelTimes> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let hit = self.shard_of(key).lock().expect("cache shard").get(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Stores a result, evicting the shard's least-recently-used entry if
    /// full.
    pub fn insert(&self, key: Spq, value: TravelTimes) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let evicted = self.shard_of(&key).lock().expect("cache shard").insert(
            self.per_shard_capacity,
            key,
            value,
        );
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry (index-update invalidation).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard");
            *shard = Shard::new(self.per_shard_capacity);
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops exactly the entries whose key matches `pred`, leaving every
    /// other entry (and its recency) untouched — the scoped invalidation
    /// a partitioned index uses when an append wrote only some shards.
    /// Returns the number of entries removed; counts one invalidation.
    pub fn clear_where(&self, pred: impl Fn(&Spq) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard");
            // One pass over the map, no key clones or re-hashing: extract
            // the victims' slab indices, then unlink their LRU nodes.
            let victims: Vec<usize> = shard
                .map
                .extract_if(|key, _| pred(key))
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
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard").map.len())
                .sum(),
            capacity: self.per_shard_capacity * self.shards.len(),
        }
    }
}

#[cfg(test)]
impl ShardedCache {
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

    #[test]
    fn hit_miss_and_counters() {
        let cache = ShardedCache::new(4, 64);
        assert_eq!(cache.get(&q(0, 0)), None);
        cache.insert(q(0, 0), v(1.0));
        assert_eq!(cache.get(&q(0, 0)), Some(v(1.0)));
        // Same path, different interval is a different key.
        assert_eq!(cache.get(&q(0, 5)), None);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 2, 1));
        assert!(c.hit_rate() > 0.3 && c.hit_rate() < 0.4);
    }

    /// A probe refreshes recency and counts its hit, but leaves a miss
    /// uncounted for the lookup that follows it.
    #[test]
    fn probe_counts_only_hits() {
        let cache = ShardedCache::new(1, 2);
        assert_eq!(cache.probe(&q(0, 0)), None);
        assert_eq!(cache.counters().misses, 0);
        cache.insert(q(0, 0), v(0.0));
        cache.insert(q(1, 0), v(1.0));
        assert_eq!(cache.probe(&q(0, 0)), Some(v(0.0)), "refresh key 0");
        cache.insert(q(2, 0), v(2.0));
        assert_eq!(cache.probe(&q(1, 0)), None, "key 1 was LRU");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 0));
        assert_eq!(ShardedCache::new(4, 0).probe(&q(0, 0)), None);
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Single shard, capacity 2: inserting a third evicts the LRU.
        let cache = ShardedCache::new(1, 2);
        cache.insert(q(0, 0), v(0.0));
        cache.insert(q(1, 0), v(1.0));
        assert!(cache.get(&q(0, 0)).is_some(), "refresh key 0");
        cache.insert(q(2, 0), v(2.0));
        assert_eq!(cache.get(&q(1, 0)), None, "key 1 was LRU");
        assert!(cache.get(&q(0, 0)).is_some());
        assert!(cache.get(&q(2, 0)).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = ShardedCache::new(1, 2);
        cache.insert(q(0, 0), v(0.0));
        cache.insert(q(0, 0), v(9.0));
        assert_eq!(cache.get(&q(0, 0)), Some(v(9.0)));
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn clear_invalidates_everything() {
        let cache = ShardedCache::new(4, 64);
        for i in 0..32 {
            cache.insert(q(i, 0), v(i as f64));
        }
        assert!(cache.counters().entries > 0);
        cache.clear();
        assert_eq!(cache.counters().entries, 0);
        assert_eq!(cache.counters().invalidations, 1);
        assert_eq!(cache.get(&q(3, 0)), None);
    }

    #[test]
    fn clear_where_scopes_eviction_and_preserves_survivors() {
        let cache = ShardedCache::new(4, 64);
        for i in 0..16 {
            cache.insert(q(i, 0), v(i as f64));
        }
        let removed = cache.clear_where(|k| k.path.first().0 < 8);
        assert_eq!(removed, 8);
        assert_eq!(cache.counters().entries, 8);
        assert_eq!(cache.counters().invalidations, 1);
        assert_eq!(cache.get(&q(3, 0)), None, "matching entry evicted");
        assert_eq!(cache.get(&q(12, 0)), Some(v(12.0)), "survivor intact");
        // Freed slots are reused without growing the slab.
        cache.insert(q(3, 0), v(33.0));
        assert_eq!(cache.get(&q(3, 0)), Some(v(33.0)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ShardedCache::new(4, 0);
        cache.insert(q(0, 0), v(1.0));
        assert_eq!(cache.get(&q(0, 0)), None);
        assert_eq!(cache.counters().entries, 0);
    }

    #[test]
    fn stress_many_keys_stays_within_capacity() {
        let cache = ShardedCache::new(8, 128);
        for round in 0..4 {
            for i in 0..512 {
                cache.insert(q(i, round), v(i as f64));
                let _ = cache.get(&q(i / 2, round));
            }
        }
        let c = cache.counters();
        assert!(c.entries <= c.capacity, "{} > {}", c.entries, c.capacity);
        assert!(c.evictions > 0);
    }
}
