//! Standby replica runtime: snapshot-shipping bootstrap plus a WAL
//! tail loop, layered on the [`crate::node::NodeStore`] replication
//! surface.
//!
//! A standby is a normal shard node (same store directory layout, same
//! RPC surface, reads served at its applied stamp) whose role is
//! [`Role::Standby`] and which runs one extra thread:
//!
//! 1. **Bootstrap** — if the directory has no `node.snap`, fetch the
//!    primary's serialized state with chunked `FetchSnapshot` requests
//!    (resumable by offset; a stamp change mid-transfer restarts at 0)
//!    and [`NodeStore::init`] from it. A directory that already has a
//!    snapshot just [`NodeStore::open`]s — a restarted standby resumes
//!    from its **local** stamp, not from scratch.
//! 2. **Tail** — poll `TailWal{from_stamp}` with the local applied
//!    stamp, applying every returned record through the same idempotent
//!    stamped [`NodeStore::append`] the primary uses (so records persist
//!    to the standby's own WAL as they arrive). Records the standby
//!    already has skip by base stamp; a `WalGap` reply (the primary's
//!    retained tail no longer reaches back far enough) re-syncs from a
//!    fresh snapshot via `NodeStore::replace_state`.
//! 3. **Promotion** — a `Promote` request flips the role to primary
//!    (served by the node dispatch); the tail loop notices and exits, and
//!    the node starts accepting appends.
//!
//! The loop only ever *writes through the store's stamped apply*, so the
//! byte-identity discipline of the differential harnesses extends to
//! standbys: at applied stamp S a standby answers exactly as the primary
//! did at stamp S.

use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::Duration;

use crate::node::NodeStore;
use tthr_client::{ClientConfig, NodeClient};
use tthr_core::ShardNodeState;
use tthr_rpc::{ErrCode, Message, Role};
use tthr_store::StoreError;

/// Tail poll cadence while caught up (a page that might be capped is
/// re-polled immediately).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Backoff after a transport error talking to the primary (the primary
/// being down is normal standby life, not a crash).
const RETRY_BACKOFF: Duration = Duration::from_millis(250);

/// A replication failure during bootstrap or re-sync.
#[derive(Debug)]
pub enum StandbyError {
    /// Transport or protocol failure talking to the primary.
    Transport(String),
    /// The primary answered with a typed error frame.
    Remote(String),
    /// The shipped bytes failed to parse or persist.
    Store(StoreError),
}

impl std::fmt::Display for StandbyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StandbyError::Transport(e) => write!(f, "standby transport: {e}"),
            StandbyError::Remote(e) => write!(f, "standby remote: {e}"),
            StandbyError::Store(e) => write!(f, "standby store: {e}"),
        }
    }
}

impl std::error::Error for StandbyError {}

impl From<StoreError> for StandbyError {
    fn from(e: StoreError) -> Self {
        StandbyError::Store(e)
    }
}

/// Fetches the primary's full serialized state via chunked
/// `FetchSnapshot` requests. Resumes by offset after short chunks and
/// restarts from 0 if the blob stamp changes mid-transfer (the primary
/// rotated or re-captured its snapshot).
pub(crate) fn fetch_snapshot_bytes(primary: &NodeClient) -> Result<Vec<u8>, StandbyError> {
    let mut got: Vec<u8> = Vec::new();
    let mut blob_stamp: Option<u64> = None;
    loop {
        let reply = primary
            .request(&Message::FetchSnapshot {
                offset: got.len() as u64,
            })
            .map_err(|e| StandbyError::Transport(e.to_string()))?;
        match reply {
            Message::SnapshotChunk {
                stamp,
                offset,
                total,
                data,
            } => {
                if blob_stamp != Some(stamp) {
                    // First chunk, or the blob changed under us: start
                    // assembling this stamp's blob from scratch.
                    if blob_stamp.is_some() && offset != 0 {
                        got.clear();
                        blob_stamp = None;
                        continue;
                    }
                    got.clear();
                    blob_stamp = Some(stamp);
                }
                if offset as usize != got.len() {
                    return Err(StandbyError::Remote(format!(
                        "snapshot chunk at offset {offset}, wanted {}",
                        got.len()
                    )));
                }
                got.extend_from_slice(&data);
                if got.len() as u64 == total {
                    return Ok(got);
                }
                if data.is_empty() {
                    return Err(StandbyError::Remote(
                        "empty snapshot chunk before the end of the blob".into(),
                    ));
                }
            }
            Message::Err { message, .. } => return Err(StandbyError::Remote(message)),
            other => {
                return Err(StandbyError::Remote(format!(
                    "snapshot fetch answered {other:?}"
                )))
            }
        }
    }
}

/// Opens (or bootstraps) a standby's store directory. An existing
/// `node.snap` wins — the standby resumes from its local stamp and the
/// tail loop catches it up; otherwise the primary's state is shipped
/// into a fresh directory.
pub(crate) fn bootstrap_standby(
    dir: impl AsRef<std::path::Path>,
    primary: &NodeClient,
) -> Result<NodeStore, StandbyError> {
    let dir = dir.as_ref();
    let mut store = if dir.join(crate::node::NODE_SNAPSHOT_FILE).is_file() {
        NodeStore::open(dir)?
    } else {
        let bytes = fetch_snapshot_bytes(primary)?;
        let state = ShardNodeState::from_snapshot_bytes(&bytes)?;
        NodeStore::init(dir, state)?
    };
    store.set_role(Role::Standby);
    Ok(store)
}

/// Runs the tail loop until the node is promoted (or the process dies).
/// Every applied record goes through [`NodeStore::append`] under the
/// shared write lock, so concurrent readers on the serving threads never
/// observe a half-applied batch and every record persists to the
/// standby's own WAL before the next poll.
pub(crate) fn run_tail_loop(store: &Arc<RwLock<NodeStore>>, primary: &NodeClient) {
    loop {
        {
            let guard = store.read().expect("store lock");
            if guard.role() == Role::Primary {
                return;
            }
        }
        let from_stamp = store.read().expect("store lock").applied_stamp();
        match primary.request(&Message::TailWal { from_stamp }) {
            Ok(Message::WalRecords { records, end_stamp }) => {
                let mut applied_through = from_stamp;
                for record in &records {
                    let mut guard = store.write().expect("store lock");
                    if guard.role() == Role::Primary {
                        return;
                    }
                    match guard.append(record) {
                        Ok((_, total)) => applied_through = total,
                        Err(e) => {
                            // A record that fails to apply (gap after a
                            // lost page, corruption) forces a re-sync.
                            eprintln!("tthr-node standby: apply failed ({e}); re-syncing");
                            drop(guard);
                            resync_from_snapshot(store, primary);
                            break;
                        }
                    }
                }
                if applied_through >= end_stamp {
                    // Caught up: ease off.
                    std::thread::sleep(POLL_INTERVAL);
                }
                // Else the page was capped — poll again immediately.
            }
            Ok(Message::Err {
                code: ErrCode::WalGap,
                ..
            }) => {
                // We fell behind the primary's retained tail (or diverge
                // ahead of it): ship a fresh snapshot.
                resync_from_snapshot(store, primary);
            }
            Ok(other) => {
                eprintln!("tthr-node standby: tail answered {other:?}");
                std::thread::sleep(RETRY_BACKOFF);
            }
            Err(_) => {
                // Primary unreachable — keep trying; a promotion may
                // arrive any moment and ends the loop above.
                std::thread::sleep(RETRY_BACKOFF);
            }
        }
    }
}

/// Ships a fresh snapshot and replaces the local state, unless the
/// shipped state is no newer than what we already have (then the gap was
/// transient — e.g. the primary restarted — and tailing just resumes).
fn resync_from_snapshot(store: &Arc<RwLock<NodeStore>>, primary: &NodeClient) {
    let state = match fetch_snapshot_bytes(primary)
        .and_then(|bytes| ShardNodeState::from_snapshot_bytes(&bytes).map_err(Into::into))
    {
        Ok(state) => state,
        Err(e) => {
            eprintln!("tthr-node standby: re-sync fetch failed ({e})");
            std::thread::sleep(RETRY_BACKOFF);
            return;
        }
    };
    let mut guard = store.write().expect("store lock");
    if guard.role() == Role::Primary || state.num_global() <= guard.applied_stamp() {
        return;
    }
    if let Err(e) = guard.replace_state(state) {
        eprintln!("tthr-node standby: re-sync persist failed ({e})");
    }
}

/// Boots a standby: bootstrap (or reopen) the store against the primary
/// at `primary_addr`, spawn the tail thread, and serve the node RPC
/// surface on `listener`, blocking forever. `on_ready` runs after the
/// store is ready but before serving — binaries print their
/// `LISTENING` line there so harnesses only connect to a queryable node.
pub fn serve_standby(
    listener: std::net::TcpListener,
    dir: impl AsRef<std::path::Path>,
    primary_addr: SocketAddr,
    on_ready: impl FnOnce(&NodeStore),
) -> Result<(), StandbyError> {
    let primary = NodeClient::new(primary_addr, ClientConfig::default());
    let store = bootstrap_standby(dir, &primary)?;
    on_ready(&store);
    let store = Arc::new(RwLock::new(store));
    let tail_store = Arc::clone(&store);
    std::thread::Builder::new()
        .name("tthr-standby-tail".into())
        .spawn(move || run_tail_loop(&tail_store, &primary))
        .map_err(|e| StandbyError::Transport(e.to_string()))?;
    crate::node::serve_node_shared(listener, store)
        .map_err(|e| StandbyError::Transport(e.to_string()))
}
