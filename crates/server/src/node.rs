//! Shard-node mode: one [`ShardNodeState`] served over the cluster's
//! binary protocol, with its own snapshot + write-ahead log.
//!
//! The node is deliberately boring compared to the epoll front-end: a
//! blocking accept loop with one thread per connection. The cluster tier
//! holds a handful of long-lived router connections per node, not ten
//! thousand browsers — thread-per-connection is the right tool, and it
//! keeps the node's only state machine (the WAL) trivial to reason
//! about.
//!
//! # Durability contract
//!
//! * [`NodeStore::append`] is **write-ahead**, in the one order the
//!   service tier's appends follow: validate the record against the
//!   in-memory state, log + fsync it as one record, and only then apply
//!   it (which can no longer fail) and retain it for standbys. A failed
//!   log write changes nothing, so the router's re-send is a fresh
//!   attempt, never an idempotent skip of a record that was not logged;
//!   a crash after the fsync replays the record on open, and the
//!   base-stamp idempotency of [`tthr_core::NodeWalRecord`] makes the
//!   retried send a clean skip.
//! * [`NodeStore::snapshot`] rotates `node.snap` / `node.wal` through
//!   [`tthr_store::rotate`] — the service tier's routine, hence its
//!   crash-ordering argument: a crash between the rename and the WAL
//!   reset pairs the new snapshot with stale WAL records, which replay
//!   as idempotent skips on open.
//! * [`NodeStore::open`] restores the snapshot and replays every intact
//!   WAL record; a torn tail is truncated by the store layer.
//!
//! # Replication surface
//!
//! The store doubles as the primary side of the standby protocol
//! (`crates/server/src/standby.rs` holds the standby side):
//!
//! * It keeps an in-memory **retained tail** of the WAL records that
//!   advanced the state since the last snapshot rotation (capped at
//!   `TAIL_RETAIN_CAP`), so `TailWal{from_stamp}` is answered from
//!   memory. A stamp older than the tail is a typed `WalGap` — the
//!   standby re-syncs from a snapshot instead.
//! * `FetchSnapshot{offset}` serves the serialized state in
//!   `SNAPSHOT_CHUNK_BYTES` chunks from a cached blob, stamped with
//!   the `num_global` it captures; a resuming client that sees the stamp
//!   change restarts at offset 0.
//! * The node carries a [`Role`]: standbys answer reads at their applied
//!   stamp but refuse `Append` with `NotPrimary` until a `Promote`
//!   (idempotent, answered with the node's `ReplStatus`).

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use tthr_core::{NodeWalRecord, SearchScratch, ShardNodeState};
use tthr_rpc::{read_frame, write_frame, ErrCode, Message, NodeMeta, Role, WireError};
use tthr_store::wal::WalWriter;
use tthr_store::{ByteReader, ByteWriter, Persist, StoreError};

/// Snapshot file name inside a node's store directory.
pub const NODE_SNAPSHOT_FILE: &str = "node.snap";
/// WAL file name inside a node's store directory.
pub const NODE_WAL_FILE: &str = "node.wal";

/// Maximum WAL records retained in memory for standby tailing. Beyond
/// this the oldest are evicted and a standby that far behind re-syncs
/// from a snapshot (the snapshot transfer is cheaper than shipping that
/// much WAL anyway).
pub(crate) const TAIL_RETAIN_CAP: usize = 1024;

/// Records per `WalRecords` page; a standby further behind re-polls
/// immediately (the reply's `end_stamp` shows it the remaining lag).
const TAIL_PAGE: usize = 128;

/// Cached backward searches a connection's scratch holds before it is
/// replaced — a few trips' worth; lookups scan the entries linearly.
const CONN_SCRATCH_SEARCHES: usize = 64;

/// Snapshot transfer chunk size. Far below `MAX_FRAME_BODY`, large
/// enough that a bootstrap is a few round trips, small enough that a
/// severed transfer wastes little.
pub(crate) const SNAPSHOT_CHUNK_BYTES: usize = 256 << 10;

/// A shard node's durable store: the in-memory [`ShardNodeState`] plus
/// the snapshot/WAL pair that lets the process die and come back.
pub struct NodeStore {
    dir: PathBuf,
    state: ShardNodeState,
    wal: WalWriter,
    role: Role,
    /// Route appends through the index's hot tail (cheap absorb, sealed
    /// at the next snapshot rotation) instead of the direct FM update.
    hot_tail: bool,
    /// WAL records that advanced the state since the last snapshot
    /// rotation, contiguous: the first has `base == tail_start`, each
    /// next chains `base == previous.new_total`.
    retained: VecDeque<NodeWalRecord>,
    /// Stamp immediately before the first retained record.
    tail_start: u64,
    /// `num_global` covered by the on-disk snapshot.
    snapshot_stamp: u64,
    /// Cached `(stamp, bytes)` of the serialized state for chunked
    /// shipping, so a multi-chunk transfer reads one stable blob even
    /// while appends land. Interior mutability: chunk fetches hold only
    /// the store's read lock.
    blob: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
}

impl NodeStore {
    /// Initialises a fresh store directory from a bootstrap state
    /// (normally one shard exported from an in-process build via
    /// [`ShardNodeState::export_from`]): writes the snapshot and starts
    /// an empty WAL.
    pub fn init(dir: impl AsRef<Path>, state: ShardNodeState) -> Result<Self, StoreError> {
        let wal = rotate_to(dir.as_ref(), &state)?;
        Ok(Self::at_snapshot(dir.as_ref(), state, wal))
    }

    /// Reopens a store directory: restores the snapshot, replays every
    /// intact WAL record (idempotently — records the snapshot already
    /// covers skip by base stamp), and resumes logging. Replayed records
    /// that advanced the state repopulate the retained tail, so a
    /// restarted primary can still feed its standbys from memory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(NODE_SNAPSHOT_FILE))?;
        let state = ShardNodeState::from_snapshot_bytes(&bytes)?;
        let (wal, recovery) = WalWriter::open(&dir.join(NODE_WAL_FILE))?;
        let mut store = Self::at_snapshot(dir, state, wal);
        for payload in &recovery.records {
            let mut r = ByteReader::new(payload);
            let record = NodeWalRecord::restore(&mut r)?;
            r.expect_exhausted("node wal record")?;
            if let Some(prepared) = store.state.prepare(&record)? {
                store.state.commit(prepared, true);
                store.retain(record);
            }
        }
        Ok(store)
    }

    /// A primary, direct-mode store whose on-disk snapshot is exactly
    /// `state`: nothing retained, nothing cached.
    fn at_snapshot(dir: &Path, state: ShardNodeState, wal: WalWriter) -> Self {
        let stamp = state.num_global();
        NodeStore {
            dir: dir.to_path_buf(),
            state,
            wal,
            role: Role::Primary,
            hot_tail: false,
            retained: VecDeque::new(),
            tail_start: stamp,
            snapshot_stamp: stamp,
            blob: Mutex::new(None),
        }
    }

    /// The node's in-memory state.
    pub fn state(&self) -> &ShardNodeState {
        &self.state
    }

    /// The node's replication role.
    pub(crate) fn role(&self) -> Role {
        self.role
    }

    /// Sets the replication role (a standby runtime flips this to
    /// [`Role::Standby`] before serving; `Promote` flips it back).
    pub(crate) fn set_role(&mut self, role: Role) {
        self.role = role;
    }

    /// Routes subsequent appends through the index's hot tail: the
    /// record is absorbed without the FM/wavelet update and sealed at
    /// the next snapshot rotation. Answers are byte-identical either
    /// way, so the flag is a pure ingest-cost knob — a restarted node
    /// replays its WAL correctly whichever mode wrote it.
    pub fn set_hot_tail(&mut self, on: bool) {
        self.hot_tail = on;
    }

    /// The index's hot-tail backlog (empty in direct mode).
    pub fn hot_stats(&self) -> tthr_core::HotStats {
        self.state.hot_stats()
    }

    /// The stamp the node has applied up to (`num_global`).
    pub fn applied_stamp(&self) -> u64 {
        self.state.num_global()
    }

    /// The node's replication status as a wire message.
    pub(crate) fn repl_status(&self) -> Message {
        Message::ReplStatus {
            role: self.role,
            applied_stamp: self.applied_stamp(),
            snapshot_stamp: self.snapshot_stamp,
        }
    }

    /// Appends one record write-ahead (see the module docs): validate,
    /// log, apply, retain. A record the node already holds is an
    /// idempotent skip that writes nothing. Returns `(applied,
    /// num_global)` — how many trajectories this shard indexed and the
    /// node's post-apply global count.
    pub fn append(&mut self, record: &NodeWalRecord) -> Result<(u64, u64), StoreError> {
        let Some(prepared) = self.state.prepare(record)? else {
            return Ok((0, self.state.num_global()));
        };
        let mut w = ByteWriter::new();
        record.persist(&mut w);
        self.wal.append(&w.into_bytes())?;
        let applied = self.state.commit(prepared, !self.hot_tail);
        self.retain(record.clone());
        Ok((applied as u64, self.state.num_global()))
    }

    /// Adds a record that advanced the state to the retained tail,
    /// evicting the oldest past [`TAIL_RETAIN_CAP`] (the tail's start
    /// stamp moves past each eviction).
    fn retain(&mut self, record: NodeWalRecord) {
        self.retained.push_back(record);
        while self.retained.len() > TAIL_RETAIN_CAP {
            if let Some(evicted) = self.retained.pop_front() {
                self.tail_start = evicted.new_total;
            }
        }
    }

    /// Rotates the snapshot: seals the hot tail into the immutable
    /// levels (node-tier compaction — a no-op in direct mode), writes
    /// the current state atomically, then starts a fresh WAL (see the
    /// module docs for the crash-ordering argument). The retained tail
    /// resets — everything it covered is in the snapshot now — and
    /// `NodeStore::snapshot_stamp` advances, shipped to standbys via
    /// `ReplStatus`. A caught-up standby keeps tailing across the
    /// rotation (its stamp equals the new tail start); only a standby
    /// behind the rotation re-syncs, once, from the fresh snapshot.
    pub fn snapshot(&mut self) -> Result<(), StoreError> {
        self.state.compact(None);
        self.wal = rotate_to(&self.dir, &self.state)?;
        self.rotated();
        Ok(())
    }

    /// Replaces the whole state from a shipped snapshot (standby
    /// re-sync after a `WalGap`): persists it atomically, starts a fresh
    /// WAL, and resets the replication bookkeeping.
    pub(crate) fn replace_state(&mut self, state: ShardNodeState) -> Result<(), StoreError> {
        self.wal = rotate_to(&self.dir, &state)?;
        self.state = state;
        self.rotated();
        Ok(())
    }

    /// Bookkeeping after a rotation landed: the snapshot now covers the
    /// whole state, so the retained tail and the shipping blob reset.
    fn rotated(&mut self) {
        self.snapshot_stamp = self.state.num_global();
        self.retained.clear();
        self.tail_start = self.snapshot_stamp;
        *self.blob.lock().expect("blob lock") = None;
    }

    /// Retained WAL records from `from_stamp` onward (one page), plus
    /// the node's current stamp. `Err((expected, found))` is a WAL gap:
    /// the stamp predates the retained tail (or lies ahead of the node)
    /// and the caller must re-sync from a snapshot.
    pub(crate) fn tail_since(
        &self,
        from_stamp: u64,
    ) -> Result<(Vec<NodeWalRecord>, u64), (u64, u64)> {
        let applied = self.state.num_global();
        if from_stamp < self.tail_start || from_stamp > applied {
            return Err((self.tail_start, from_stamp));
        }
        let records = self
            .retained
            .iter()
            .filter(|r| r.base >= from_stamp)
            .take(TAIL_PAGE)
            .cloned()
            .collect();
        Ok((records, applied))
    }

    /// One chunk of the serialized state, resuming at `offset`. The blob
    /// is cached so a multi-chunk transfer is stable across concurrent
    /// appends; a fresh transfer (offset 0) re-captures the current
    /// state when the cache has gone stale.
    pub(crate) fn snapshot_chunk(&self, offset: u64) -> Message {
        let blob = {
            let mut cache = self.blob.lock().expect("blob lock");
            let current = self.state.num_global();
            let fresh = match cache.as_ref() {
                Some((stamp, bytes)) if offset > 0 || *stamp == current => {
                    (*stamp, Arc::clone(bytes))
                }
                _ => {
                    let bytes = Arc::new(self.state.to_snapshot_bytes());
                    *cache = Some((current, Arc::clone(&bytes)));
                    (current, bytes)
                }
            };
            fresh
        };
        let (stamp, bytes) = blob;
        let total = bytes.len() as u64;
        if offset > total {
            return Message::error(
                ErrCode::BadRequest,
                format!("snapshot resume offset {offset} beyond blob of {total} bytes"),
            );
        }
        let end = (offset as usize + SNAPSHOT_CHUNK_BYTES).min(bytes.len());
        Message::SnapshotChunk {
            stamp,
            offset,
            total,
            data: bytes[offset as usize..end].to_vec(),
        }
    }
}

/// Rotates `dir` to `state`: snapshot written atomically, then a fresh
/// WAL, whose writer is returned ([`tthr_store::rotate`]).
fn rotate_to(dir: &Path, state: &ShardNodeState) -> Result<WalWriter, StoreError> {
    let bytes = state.to_snapshot_bytes();
    let write = |out: &mut std::io::BufWriter<_>| Ok(out.write_all(&bytes)?);
    Ok(tthr_store::rotate(dir, NODE_SNAPSHOT_FILE, NODE_WAL_FILE, write)?.1)
}

/// Serves one shard node over `listener`, blocking forever: accepts
/// connections and spawns a thread per connection. Queries take a read
/// lock; appends and snapshot rotations take the write lock, so readers
/// never observe a half-applied batch.
pub fn serve_node(listener: TcpListener, store: NodeStore) -> std::io::Result<()> {
    serve_node_shared(listener, Arc::new(RwLock::new(store)))
}

/// [`serve_node`] over an externally shared store — the standby runtime
/// uses this so its tail loop and the accept loop see the same state.
///
/// A failed `accept` is transient, as in the epoll reactor: the loop
/// keeps accepting. Out of file descriptors — each connection holds one —
/// it sleeps 10 ms first, so it cannot spin until a connection closes.
pub(crate) fn serve_node_shared(
    listener: TcpListener,
    store: Arc<RwLock<NodeStore>>,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                let store = Arc::clone(&store);
                std::thread::spawn(move || serve_node_conn(conn, &store));
            }
            Err(e) if crate::sys::out_of_fds(&e) => std::thread::sleep(crate::sys::ACCEPT_BACKOFF),
            Err(_) => {}
        }
    }
}

/// One connection's request loop — public so tests (and embedders) can
/// run a node on their own listener/threading setup.
pub(crate) fn serve_node_conn(mut conn: TcpStream, store: &RwLock<NodeStore>) {
    let _ = conn.set_nodelay(true);
    // One scratch per connection: a router sends one trip's sub-queries
    // down one pooled connection, so its sub-path searches hit the suffix
    // states of their parents here exactly as inside an in-process engine.
    // Entries self-invalidate on every index mutation.
    let mut scratch = SearchScratch::new();
    loop {
        let request = match read_frame(&mut conn) {
            Ok(Some(m)) => m,
            // Clean EOF between requests: the peer hung up.
            Ok(None) => return,
            Err(WireError::Frame(e)) => {
                // A malformed frame poisons the stream (framing is lost);
                // answer typed and close.
                let reply = Message::error(ErrCode::BadRequest, format!("bad frame: {e}"));
                let _ = write_frame(&mut conn, &reply);
                return;
            }
            Err(WireError::Io(_)) => return,
        };
        if scratch.cached_searches() >= CONN_SCRATCH_SEARCHES {
            // Trips share nothing with each other; keep lookups short.
            scratch = SearchScratch::new();
        }
        let reply = dispatch(&request, store, &mut scratch);
        if write_frame(&mut conn, &reply).is_err() {
            return;
        }
    }
}

fn dispatch(request: &Message, store: &RwLock<NodeStore>, scratch: &mut SearchScratch) -> Message {
    match request {
        Message::Health => {
            let store = store.read().expect("store lock");
            store.repl_status()
        }
        Message::GetMeta => {
            let store = store.read().expect("store lock");
            Message::Meta(meta_of(store.state()))
        }
        Message::GetRouting => {
            let store = store.read().expect("store lock");
            Message::Routing(store.state().router().clone())
        }
        Message::TravelTimes(spq) => {
            let store = store.read().expect("store lock");
            match store.state().get_travel_times_with(spq, scratch) {
                Ok(tt) => Message::TravelTimesResult {
                    values: tt.values.into_vec(),
                    fallback: tt.fallback,
                },
                Err(e) => err_reply(&e),
            }
        }
        Message::LadderBatch { items } => {
            // One read guard and one scratch for the whole round: its
            // ladders see one append generation of this shard.
            let store = store.read().expect("store lock");
            match store.state().travel_times_ladders_with(items, scratch) {
                Ok(answers) => Message::LadderBatchResult {
                    results: answers
                        .into_iter()
                        .map(|(level, tt)| (level as u32, tt.values.into_vec(), tt.fallback))
                        .collect(),
                },
                Err(e) => err_reply(&e),
            }
        }
        Message::Count { spq, cap } => {
            let store = store.read().expect("store lock");
            match store.state().count_matching_with(spq, *cap, scratch) {
                Ok(n) => Message::CountResult(n as u64),
                Err(e) => err_reply(&e),
            }
        }
        Message::Estimate { spq, mode } => {
            let store = store.read().expect("store lock");
            match store.state().estimate(spq, *mode) {
                Ok(v) => Message::EstimateResult(v),
                Err(e) => err_reply(&e),
            }
        }
        Message::Append(record) => {
            let mut store = store.write().expect("store lock");
            if store.role() == Role::Standby {
                return Message::error(
                    ErrCode::NotPrimary,
                    "standby refuses appends; write to the primary or promote first",
                );
            }
            match store.append(record) {
                Ok((appended, total)) => Message::Appended { appended, total },
                Err(e) => err_reply(&e),
            }
        }
        Message::Snapshot => {
            let mut store = store.write().expect("store lock");
            match store.snapshot() {
                Ok(()) => Message::Ok,
                Err(e) => err_reply(&e),
            }
        }
        Message::FetchSnapshot { offset } => {
            let store = store.read().expect("store lock");
            store.snapshot_chunk(*offset)
        }
        Message::TailWal { from_stamp } => {
            let store = store.read().expect("store lock");
            match store.tail_since(*from_stamp) {
                Ok((records, end_stamp)) => Message::WalRecords { records, end_stamp },
                Err((expected, found)) => Message::Err {
                    code: ErrCode::WalGap,
                    expected,
                    found,
                    message: format!(
                        "stamp {found} outside the retained wal tail (starts at {expected}); \
                         re-sync from a snapshot"
                    ),
                },
            }
        }
        Message::Promote => {
            let mut store = store.write().expect("store lock");
            store.set_role(Role::Primary);
            store.repl_status()
        }
        other => Message::error(
            ErrCode::BadRequest,
            format!("not a request frame: {other:?}"),
        ),
    }
}

fn meta_of(state: &ShardNodeState) -> NodeMeta {
    NodeMeta {
        shard: state.shard(),
        num_shards: state.num_shards() as u32,
        num_edges: state.router().num_edges() as u64,
        num_global: state.num_global(),
        num_members: state.members().len() as u64,
        num_partitions: state.index().num_partitions() as u64,
        span_min: state.span_min(),
        span_max: state.span_max(),
    }
}

/// Maps store-layer failures to wire errors: WAL gaps keep their stamps
/// (the router's retry logic keys off them), semantic violations are the
/// client's fault, broken bytes are corruption, and I/O is the node's
/// own problem.
fn err_reply(e: &StoreError) -> Message {
    match e {
        StoreError::WalGap { expected, found } => Message::Err {
            code: ErrCode::WalGap,
            expected: *expected,
            found: *found,
            message: e.to_string(),
        },
        StoreError::Corrupt { .. } => Message::error(ErrCode::BadRequest, e.to_string()),
        StoreError::Io(_) => Message::error(ErrCode::Internal, e.to_string()),
        _ => Message::error(ErrCode::Corrupt, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tthr_core::{ShardedSntIndex, SntConfig, Spq, TimeInterval};
    use tthr_network::examples::{example_network, EDGE_A, EDGE_B, EDGE_E};
    use tthr_network::Path as NetPath;
    use tthr_trajectory::examples::example_trajectories;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tthr-node-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn example_state() -> ShardNodeState {
        let network = example_network();
        let sharded =
            ShardedSntIndex::build(&network, &example_trajectories(), SntConfig::default(), 2);
        // Export whichever shard owns the example SPQ's first edge so the
        // tests can actually query the node they hold.
        let shard = tthr_core::ShardRouter::build(&network, 2).shard_of(EDGE_A);
        ShardNodeState::export_from(&sharded, shard)
    }

    fn example_spq() -> Spq {
        Spq::new(
            NetPath::new(vec![EDGE_A, EDGE_B, EDGE_E]),
            TimeInterval::fixed(0, 15),
        )
        .with_beta(2)
    }

    #[test]
    fn node_store_round_trips_through_init_and_open() {
        let dir = temp_dir("roundtrip");
        let state = example_state();
        let spq = example_spq();
        let want = state.get_travel_times(&spq).unwrap().sorted();
        drop(NodeStore::init(&dir, state).unwrap());
        let reopened = NodeStore::open(&dir).unwrap();
        assert_eq!(
            reopened.state().get_travel_times(&spq).unwrap().sorted(),
            want
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_survive_reopen_and_snapshot_rotation() {
        let dir = temp_dir("appends");
        let mut store = NodeStore::init(&dir, example_state()).unwrap();
        let record = NodeWalRecord {
            base: store.state().num_global(),
            new_total: store.state().num_global() + 1,
            span_min: store.state().span_min(),
            span_max: store.state().span_max().max(100),
            members: vec![],
            trajectories: vec![],
        };
        let (applied, total) = store.append(&record).unwrap();
        assert_eq!((applied, total), (0, record.new_total));
        // Re-applying is an idempotent skip — and must not grow the WAL.
        assert_eq!(store.append(&record).unwrap(), (0, record.new_total));
        drop(store);

        let reopened = NodeStore::open(&dir).unwrap();
        assert_eq!(reopened.state().num_global(), record.new_total);
        let mut store = reopened;
        store.snapshot().unwrap();
        drop(store);
        let again = NodeStore::open(&dir).unwrap();
        assert_eq!(again.state().num_global(), record.new_total);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dispatch_answers_queries_and_rejects_response_frames() {
        let store = RwLock::new(NodeStore::init(temp_dir("dispatch"), example_state()).unwrap());
        let stamp = store.read().unwrap().applied_stamp();
        assert_eq!(
            dispatch(&Message::Health, &store, &mut SearchScratch::new()),
            Message::ReplStatus {
                role: Role::Primary,
                applied_stamp: stamp,
                snapshot_stamp: stamp,
            }
        );
        let Message::Meta(meta) = dispatch(&Message::GetMeta, &store, &mut SearchScratch::new())
        else {
            panic!("GetMeta answers Meta");
        };
        assert_eq!(meta.num_shards, 2);
        match dispatch(&Message::Ok, &store, &mut SearchScratch::new()) {
            Message::Err {
                code: ErrCode::BadRequest,
                ..
            } => {}
            other => panic!("response frame as request: {other:?}"),
        }
        let dir = store.read().unwrap().dir.to_path_buf();
        std::fs::remove_dir_all(dir).ok();
    }

    /// A batch is answered item by item like the in-process index answers
    /// each ladder; a level list that is empty, does not start at the
    /// query's window, is not nested-ascending, or is longer than the cap
    /// — alone or inside an otherwise good batch — and a batch of no or
    /// too many items is a typed `BadRequest` for the whole batch, and
    /// the connection's scratch keeps serving.
    #[test]
    fn dispatch_answers_ladders_and_rejects_malformed_level_lists() {
        use tthr_core::node::{MAX_LADDER_BATCH, MAX_LADDER_LEVELS};
        let store = RwLock::new(NodeStore::init(temp_dir("ladder"), example_state()).unwrap());
        let mut scratch = SearchScratch::new();
        // 12:00 ± 7.5 min holds nothing (the example data sits at t < 30 s);
        // only the full-day level reaches it.
        let narrow = TimeInterval::periodic_around(12 * 3600, 900);
        let spq = Spq::new(NetPath::new(vec![EDGE_A, EDGE_B, EDGE_E]), narrow).with_beta(2);
        let wide = narrow.widen(86_400);
        let good = vec![narrow, narrow.widen(1800), wide];
        let easy = (example_spq(), vec![example_spq().interval]);
        let want: Vec<_> = {
            let guard = store.read().unwrap();
            let index = guard.state().index();
            [(&spq, &good), (&easy.0, &easy.1)]
                .map(|(q, levels)| {
                    let (level, tt) =
                        tthr_core::ladder_sequential(index, q, levels, &mut SearchScratch::new());
                    (level as u32, tt.values.to_vec(), tt.fallback)
                })
                .to_vec()
        };
        assert_eq!(want[0].0, 2, "only the widest level holds β");
        assert_eq!(want[1].0, 0);
        let batch = |items: Vec<(Spq, Vec<TimeInterval>)>| Message::LadderBatch { items };
        let good_batch = batch(vec![(spq.clone(), good.clone()), easy.clone()]);
        assert_eq!(
            dispatch(&good_batch, &store, &mut scratch),
            Message::LadderBatchResult {
                results: want.clone()
            }
        );
        let bad_lists = [
            vec![],
            vec![narrow.widen(1800), wide],
            vec![narrow, wide, narrow.widen(1800)],
            vec![narrow, TimeInterval::periodic_around(6 * 3600, 1800)],
            std::iter::successors(Some(narrow), |w| Some(w.widen(w.size() + 2)))
                .take(MAX_LADDER_LEVELS + 1)
                .collect(),
        ];
        let mut bad_batches: Vec<Message> = bad_lists
            .into_iter()
            .flat_map(|levels| {
                [
                    batch(vec![(spq.clone(), levels.clone())]),
                    batch(vec![easy.clone(), (spq.clone(), levels), easy.clone()]),
                ]
            })
            .collect();
        bad_batches.push(batch(vec![]));
        bad_batches.push(batch(vec![easy.clone(); MAX_LADDER_BATCH + 1]));
        for bad in bad_batches {
            match dispatch(&bad, &store, &mut scratch) {
                Message::Err {
                    code: ErrCode::BadRequest,
                    ..
                } => {}
                other => panic!("{bad:?} answered {other:?}"),
            }
        }
        assert_eq!(
            dispatch(&batch(vec![easy; MAX_LADDER_BATCH]), &store, &mut scratch),
            Message::LadderBatchResult {
                results: vec![want[1].clone(); MAX_LADDER_BATCH]
            }
        );
        let dir = store.read().unwrap().dir.to_path_buf();
        std::fs::remove_dir_all(dir).ok();
    }

    fn advance_record(store: &NodeStore) -> NodeWalRecord {
        NodeWalRecord {
            base: store.applied_stamp(),
            new_total: store.applied_stamp() + 1,
            span_min: store.state().span_min(),
            span_max: store.state().span_max().max(100),
            members: vec![],
            trajectories: vec![],
        }
    }

    /// Regression: the node used to apply first and log second, so a
    /// failed WAL write left the state advanced and the router's re-send
    /// was acked as an idempotent skip — for a record in neither the log
    /// nor the retained tail. Write-ahead, a failed log write changes
    /// nothing and a re-send fails again.
    #[test]
    fn failed_wal_write_neither_applies_nor_acks() {
        let dir = temp_dir("wal-fail");
        let mut store = NodeStore::init(&dir, example_state()).unwrap();
        let logged = advance_record(&store);
        store.append(&logged).unwrap();
        let stamp = store.applied_stamp();
        let lost = advance_record(&store);
        store.wal.poison();
        for attempt in ["first send", "re-send"] {
            assert!(store.append(&lost).is_err(), "{attempt} must not ack");
            assert_eq!(store.applied_stamp(), stamp, "{attempt}");
            let (tail, end) = store.tail_since(stamp - 1).unwrap();
            assert_eq!((tail, end), (vec![logged.clone()], stamp), "{attempt}");
        }
        // Over the wire the refusal is the node's fault, not the sender's:
        // `Internal`, which the router answers as a 5xx.
        let shared = RwLock::new(store);
        match dispatch(&Message::Append(lost), &shared, &mut SearchScratch::new()) {
            Message::Err {
                code: ErrCode::Internal,
                ..
            } => {}
            other => panic!("re-send over a poisoned wal answered {other:?}"),
        }
        let mut store = shared.into_inner().unwrap();
        assert_eq!(store.applied_stamp(), stamp);
        // A record the node already holds is still a skip that needs no
        // log write — idempotency does not depend on the writer.
        assert_eq!(store.append(&logged).unwrap(), (0, stamp));
        drop(store);
        let reopened = NodeStore::open(&dir).unwrap();
        assert_eq!(
            reopened.applied_stamp(),
            stamp,
            "the log holds what was acked"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Hot-tail mode absorbs appends without the FM update, answers
    /// byte-identically to direct mode, and the snapshot rotation seals
    /// the backlog without disturbing a caught-up standby's tail.
    #[test]
    fn hot_tail_append_matches_direct_and_rotation_seals() {
        use tthr_core::node::plan_node_records;
        use tthr_trajectory::{TrajEntry, UserId};
        let dir_h = temp_dir("hot");
        let dir_d = temp_dir("hot-direct");
        let mut hot = NodeStore::init(&dir_h, example_state()).unwrap();
        hot.set_hot_tail(true);
        let mut direct = NodeStore::init(&dir_d, example_state()).unwrap();
        let batch = vec![(
            UserId(9),
            vec![
                TrajEntry::new(EDGE_A, 3, 3.0),
                TrajEntry::new(EDGE_B, 6, 3.0),
                TrajEntry::new(EDGE_E, 9, 4.0),
            ],
        )];
        let records = plan_node_records(
            hot.state().router(),
            hot.applied_stamp(),
            hot.state().span_min(),
            hot.state().span_max(),
            &batch,
        )
        .unwrap();
        let record = &records[hot.state().shard() as usize];
        hot.append(record).unwrap();
        direct.append(record).unwrap();
        assert!(hot.hot_stats().entries > 0, "absorbed into the hot tail");
        assert_eq!(direct.hot_stats().entries, 0, "direct mode seals inline");

        let spq = example_spq();
        let want = direct.state().get_travel_times(&spq).unwrap().sorted();
        assert_eq!(hot.state().get_travel_times(&spq).unwrap().sorted(), want);

        let caught_up = hot.applied_stamp();
        hot.snapshot().unwrap();
        assert_eq!(hot.hot_stats().entries, 0, "rotation seals the backlog");
        assert_eq!(hot.snapshot_stamp, caught_up, "ReplStatus ships it");
        // A caught-up standby keeps tailing across the rotation — the
        // primary's compaction never reads as a WalGap to it.
        let (tail, end) = hot.tail_since(caught_up).unwrap();
        assert!(tail.is_empty());
        assert_eq!(end, caught_up);
        assert_eq!(hot.state().get_travel_times(&spq).unwrap().sorted(), want);

        drop(hot);
        let reopened = NodeStore::open(&dir_h).unwrap();
        assert_eq!(
            reopened.state().get_travel_times(&spq).unwrap().sorted(),
            want
        );
        std::fs::remove_dir_all(&dir_h).ok();
        std::fs::remove_dir_all(&dir_d).ok();
    }

    #[test]
    fn retained_tail_feeds_wal_tailing_and_resets_on_rotation() {
        let dir = temp_dir("tail");
        let mut store = NodeStore::init(&dir, example_state()).unwrap();
        let base = store.applied_stamp();
        let mut records = Vec::new();
        for _ in 0..3 {
            let record = advance_record(&store);
            store.append(&record).unwrap();
            records.push(record);
        }
        // Tail from the bootstrap stamp: every record, in order.
        let (tail, end) = store.tail_since(base).unwrap();
        assert_eq!(tail, records);
        assert_eq!(end, base + 3);
        // Tail mid-way: only what's ahead of the stamp.
        let (tail, _) = store.tail_since(base + 2).unwrap();
        assert_eq!(tail, records[2..]);
        // Fully caught up: empty page, same end stamp.
        let (tail, end) = store.tail_since(base + 3).unwrap();
        assert!(tail.is_empty());
        assert_eq!(end, base + 3);
        // A stamp ahead of the node is a gap (divergence).
        assert!(store.tail_since(base + 4).is_err());

        // The tail survives a reopen (rebuilt from the WAL replay)...
        drop(store);
        let store = NodeStore::open(&dir).unwrap();
        let (tail, _) = store.tail_since(base).unwrap();
        assert_eq!(tail, records);
        assert_eq!(store.snapshot_stamp, base);

        // ...and resets on snapshot rotation: older stamps now gap.
        let mut store = store;
        store.snapshot().unwrap();
        assert_eq!(store.snapshot_stamp, base + 3);
        assert_eq!(store.tail_since(base), Err((base + 3, base)));
        let (tail, _) = store.tail_since(base + 3).unwrap();
        assert!(tail.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_chunks_reassemble_the_exact_state_bytes() {
        let dir = temp_dir("chunks");
        let store = NodeStore::init(&dir, example_state()).unwrap();
        let want = store.state().to_snapshot_bytes();
        let mut got = Vec::new();
        let mut blob_stamp = None;
        loop {
            let Message::SnapshotChunk {
                stamp,
                offset,
                total,
                data,
            } = store.snapshot_chunk(got.len() as u64)
            else {
                panic!("chunk request answers a chunk");
            };
            assert_eq!(offset as usize, got.len());
            assert_eq!(total as usize, want.len());
            assert_eq!(*blob_stamp.get_or_insert(stamp), stamp, "stable blob");
            got.extend_from_slice(&data);
            if got.len() as u64 == total {
                break;
            }
            assert!(!data.is_empty(), "transfer must make progress");
        }
        assert_eq!(got, want);
        // An offset beyond the blob is a typed client error.
        assert!(matches!(
            store.snapshot_chunk(want.len() as u64 + 1),
            Message::Err {
                code: ErrCode::BadRequest,
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn standby_role_refuses_appends_until_promoted() {
        let dir = temp_dir("standby-role");
        let mut init = NodeStore::init(&dir, example_state()).unwrap();
        init.set_role(Role::Standby);
        let record = advance_record(&init);
        let store = RwLock::new(init);
        match dispatch(
            &Message::Append(record.clone()),
            &store,
            &mut SearchScratch::new(),
        ) {
            Message::Err {
                code: ErrCode::NotPrimary,
                ..
            } => {}
            other => panic!("standby append: {other:?}"),
        }
        // Promote is answered with the new status, and is idempotent.
        for _ in 0..2 {
            let Message::ReplStatus { role, .. } =
                dispatch(&Message::Promote, &store, &mut SearchScratch::new())
            else {
                panic!("promote answers status");
            };
            assert_eq!(role, Role::Primary);
        }
        match dispatch(&Message::Append(record), &store, &mut SearchScratch::new()) {
            Message::Appended { .. } => {}
            other => panic!("promoted append: {other:?}"),
        }
        let dir = store.read().unwrap().dir.to_path_buf();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replace_state_resets_replication_bookkeeping_durably() {
        let dir_a = temp_dir("replace-src");
        let dir_b = temp_dir("replace-dst");
        let mut primary = NodeStore::init(&dir_a, example_state()).unwrap();
        let record = advance_record(&primary);
        primary.append(&record).unwrap();

        let mut standby = NodeStore::init(&dir_b, example_state()).unwrap();
        standby.set_role(Role::Standby);
        let shipped = ShardNodeState::from_snapshot_bytes(&primary.state().to_snapshot_bytes());
        standby.replace_state(shipped.unwrap()).unwrap();
        assert_eq!(standby.applied_stamp(), primary.applied_stamp());
        assert_eq!(standby.snapshot_stamp, primary.applied_stamp());
        drop(standby);
        // The replacement is durable and reopens at the shipped stamp.
        let reopened = NodeStore::open(&dir_b).unwrap();
        assert_eq!(reopened.applied_stamp(), primary.applied_stamp());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn wal_gap_errors_carry_their_stamps_on_the_wire() {
        let store = RwLock::new(NodeStore::init(temp_dir("gap"), example_state()).unwrap());
        let base = store.read().unwrap().state().num_global();
        let record = NodeWalRecord {
            base: base + 5,
            new_total: base + 6,
            span_min: 0,
            span_max: 0,
            members: vec![],
            trajectories: vec![],
        };
        match dispatch(&Message::Append(record), &store, &mut SearchScratch::new()) {
            Message::Err {
                code: ErrCode::WalGap,
                expected,
                found,
                ..
            } => {
                assert_eq!((expected, found), (base, base + 5));
            }
            other => panic!("expected WalGap, got {other:?}"),
        }
        let dir = store.read().unwrap().dir.to_path_buf();
        std::fs::remove_dir_all(dir).ok();
    }
}
