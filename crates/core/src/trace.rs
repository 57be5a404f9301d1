//! Per-query cost attribution.
//!
//! A [`QueryTrace`] rides inside [`SearchScratch`](crate::SearchScratch) and
//! accumulates what a query *did* — rank operations, wavelet descents,
//! scratch-cache and result-cache hits, shard fanout, search time — without
//! ever influencing what it *returns*. The trace is plain counters on an
//! already-thread-local scratch, so recording is a handful of integer adds;
//! the only optional part is wall-clock timing ([`QueryTrace::timing`]),
//! which the service layer enables per request.
//!
//! Traces deliberately live outside [`QueryStats`](crate::QueryStats): the
//! differential harnesses compare `QueryStats` byte-for-byte across
//! backends, while cost attribution legitimately differs (a sharded backend
//! routes, a single index does not).

/// Cost profile of one query (or an accumulation over several), filled in
/// by the layers a query passes through.
///
/// All fields are observational; clearing or ignoring the trace never
/// changes query results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Backward-search `rank2` operations executed (live steps only).
    pub rank_ops: u64,
    /// Wavelet nodes descended through across those ranks.
    pub wavelet_nodes: u64,
    /// Scratch suffix-cache hits (a sub-path search served from a
    /// checkpointed cursor state instead of a fresh backward search).
    pub scratch_hits: u64,
    /// Scratch suffix-cache misses (fresh backward searches executed).
    pub scratch_misses: u64,
    /// FM-index partitions searched by those fresh searches.
    pub partitions_searched: u64,
    /// Index-level queries executed (`get_travel_times` / `count_matching`
    /// calls that reached an [`SntIndex`](crate::SntIndex)).
    pub index_queries: u64,
    /// Multi-level relaxation ladders answered as one operation (one
    /// index call or one node RPC) instead of one dispatch per level —
    /// [`QueryStats::index_queries`](crate::QueryStats) keeps counting
    /// the levels logically consumed.
    pub ladders: u64,
    /// [`TravelTimeProvider::travel_times_ladders`](crate::TravelTimeProvider::travel_times_ladders)
    /// dispatches that carried at least one ladder: one per relaxation
    /// round in process, one per (round, shard) RPC on the cluster —
    /// where `ladders` counts every ladder shipped inside them, so
    /// `ladders ÷ ladder_batches` is the batch fill.
    pub ladder_batches: u64,
    /// Temporal scans over a path's first segment (`buildMap` scans,
    /// counting scans, ladder bucketing passes): the real work behind
    /// `index_queries`.
    pub temporal_passes: u64,
    /// Index operations — single SPQs or whole ladders — answered `∅`
    /// from counts alone, with no temporal scan (the census prune).
    pub pruned: u64,
    /// Service-layer result-cache hits (filled in above core).
    pub cache_hits: u64,
    /// Service-layer result-cache misses.
    pub cache_misses: u64,
    /// Queries routed to a shard (equals `index_queries` on a sharded
    /// backend, 0 on a bare index).
    pub shard_queries: u64,
    /// Bitmask of shards touched (shard `s` sets bit `s % 64`); fanout is
    /// its population count.
    pub shard_mask: u64,
    /// Whether wall-clock timing is enabled; off by default so the hot
    /// path never reads the clock unless a layer asks for it.
    pub timing: bool,
    /// Total nanoseconds spent inside index search calls (only populated
    /// when `timing` is set).
    pub search_ns: u64,
}

impl QueryTrace {
    /// Resets every counter, preserving the `timing` flag (the scratch
    /// owner decides when timing is on, not the query that used it last).
    pub(crate) fn reset(&mut self) {
        *self = QueryTrace {
            timing: self.timing,
            ..QueryTrace::default()
        };
    }

    /// Records that shard `s` served part of this query.
    #[inline]
    pub(crate) fn note_shard(&mut self, s: usize) {
        self.shard_queries += 1;
        self.shard_mask |= 1u64 << (s % 64);
    }

    /// Number of distinct shards touched (distinct modulo 64 — exact for
    /// every realistic shard count).
    pub fn shard_fanout(&self) -> u32 {
        self.shard_mask.count_ones()
    }

    /// Accumulates another trace's counters into this one. `timing` is
    /// OR-ed; `search_ns` adds.
    pub fn merge(&mut self, other: &QueryTrace) {
        self.rank_ops += other.rank_ops;
        self.wavelet_nodes += other.wavelet_nodes;
        self.scratch_hits += other.scratch_hits;
        self.scratch_misses += other.scratch_misses;
        self.partitions_searched += other.partitions_searched;
        self.index_queries += other.index_queries;
        self.ladders += other.ladders;
        self.ladder_batches += other.ladder_batches;
        self.temporal_passes += other.temporal_passes;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.shard_queries += other.shard_queries;
        self.shard_mask |= other.shard_mask;
        self.timing |= other.timing;
        self.search_ns += other.search_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_preserves_timing_flag() {
        let mut t = QueryTrace {
            timing: true,
            ..QueryTrace::default()
        };
        t.rank_ops = 7;
        t.search_ns = 99;
        t.reset();
        assert!(t.timing);
        assert_eq!(t.rank_ops, 0);
        assert_eq!(t.search_ns, 0);

        let mut u = QueryTrace::default();
        u.note_shard(3);
        u.reset();
        assert!(!u.timing);
        assert_eq!(u.shard_mask, 0);
    }

    #[test]
    fn note_shard_tracks_fanout() {
        let mut t = QueryTrace::default();
        t.note_shard(0);
        t.note_shard(3);
        t.note_shard(3);
        t.note_shard(67); // wraps to bit 3 — still 2 distinct bits
        assert_eq!(t.shard_queries, 4);
        assert_eq!(t.shard_fanout(), 2);
    }

    #[test]
    fn merge_is_additive_and_ors_flags() {
        let mut a = QueryTrace {
            rank_ops: 2,
            ..QueryTrace::default()
        };
        a.note_shard(1);
        let mut b = QueryTrace {
            timing: true,
            ..QueryTrace::default()
        };
        b.rank_ops = 3;
        b.search_ns = 10;
        b.note_shard(2);
        a.merge(&b);
        assert_eq!(a.rank_ops, 5);
        assert_eq!(a.search_ns, 10);
        assert!(a.timing);
        assert_eq!(a.shard_fanout(), 2);
        assert_eq!(a.shard_queries, 2);
    }
}
