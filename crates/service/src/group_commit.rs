//! Leader/follower group commit for the append path.
//!
//! Every append (`append_batch` / `append_new`) used to hold the append
//! serialization point — the write lock or the shared-append permit —
//! across its **own** WAL `write + fsync`. Under concurrent ingest that
//! degenerates to one fsync per record, fully serialized: fsync latency,
//! not index work, bounds append throughput.
//!
//! This module batches the durability boundary instead. Callers enqueue
//! their request and block; the first caller to find no leader active
//! elects itself **leader**, drains the whole queue, and commits it as
//! one batch:
//!
//! 1. **Stamp + validate** every queued request in order, arithmetically:
//!    request *k*'s base stamp counts the not-yet-applied requests before
//!    it, so the encoded WAL records are byte-identical to the records a
//!    serial one-at-a-time execution would have produced. Requests that
//!    validate to "already applied" (`Ok(0)`) or to a typed error are
//!    settled here and excluded from the batch.
//! 2. **One WAL write + one fsync** for all surviving records
//!    (`WalWriter::append_many`). On failure nothing is applied and every
//!    surviving request reports the failure — an acked append is always a
//!    durable append, and a durable batch is all-or-nothing.
//! 3. **Apply in stamp order**, with the same per-request generation
//!    seqlock bumps and scoped cache eviction as before — readers cannot
//!    distinguish a group commit from the serial schedule it replaces.
//!
//! The leader performs all three phases under a single acquisition of the
//! index lock (+ append permit for shared-append backends), so snapshots
//! and other appenders can never interleave mid-batch. Followers then
//! find their settled result and return without touching the index lock
//! at all. Ordering argument: WAL order equals stamp order equals apply
//! order (one thread does all three), and the fsync precedes the first
//! apply — so replay after a crash sees a prefix of exactly the batches
//! that were applied, in the order they were applied, and the idempotent
//! base stamps absorb the overlap with the snapshot.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use tthr_store::StoreError;
use tthr_trajectory::{TrajEntry, Trajectory, UserId};

/// One queued append, owned so the leader can process it on the
/// submitter's behalf while the submitter blocks.
pub(crate) enum AppendRequest {
    /// `append_batch`: the tail of a grown set. The delta past the
    /// trajectory count the leader finds is what gets logged and applied.
    Set {
        /// Size of the whole grown set.
        len: usize,
        /// The trajectory count read at submit — never above the count a
        /// leader later finds (the id space only grows).
        from: usize,
        /// The set's members with ids `from..len`.
        tail: Vec<Trajectory>,
    },
    /// `append_new`: a delta payload with an optional idempotency stamp.
    Payload {
        /// Client's idempotency stamp (trajectory count it believes).
        base: Option<u64>,
        /// The new trajectories to append.
        new: Vec<(UserId, Vec<TrajEntry>)>,
    },
}

/// A submitted request's settled outcome.
pub(crate) type AppendOutcome = Result<usize, StoreError>;

struct State {
    /// Monotonic ticket source.
    next_ticket: u64,
    /// Requests awaiting a leader, in submission order.
    queue: Vec<(u64, AppendRequest)>,
    /// Whether some submitter is currently committing a drained batch.
    leader_active: bool,
    /// Outcomes deposited by a leader for followers still parked.
    results: HashMap<u64, AppendOutcome>,
}

/// The waiting room: a queue, a leader flag, and a condvar the followers
/// park on. The commit work itself is the caller's closure — this type
/// only decides *who* runs it and *which* requests it covers.
pub(crate) struct GroupCommit {
    state: Mutex<State>,
    done: Condvar,
}

impl GroupCommit {
    pub(crate) fn new() -> Self {
        GroupCommit {
            state: Mutex::new(State {
                next_ticket: 0,
                queue: Vec::new(),
                leader_active: false,
                results: HashMap::new(),
            }),
            done: Condvar::new(),
        }
    }

    /// Submits one append and blocks until a leader — possibly this very
    /// caller — has settled it. `commit` receives a drained batch in
    /// submission order and must return one outcome per ticket; it is
    /// invoked without the state lock held, so it may block on the index
    /// lock and fsync freely while new submitters enqueue behind it.
    ///
    /// If a leader panics mid-commit (index lock poisoned), its followers'
    /// entries are lost with it — but so is the service: every later
    /// append panics on the poisoned lock, matching the crate-wide
    /// poisoning policy.
    pub(crate) fn submit(
        &self,
        request: AppendRequest,
        commit: impl FnOnce(Vec<(u64, AppendRequest)>) -> Vec<(u64, AppendOutcome)>,
    ) -> AppendOutcome {
        let mut state = self.state.lock().expect("group-commit state");
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push((ticket, request));
        loop {
            if let Some(outcome) = state.results.remove(&ticket) {
                return outcome;
            }
            if !state.leader_active {
                // No result and no leader: our entry is still queued, so
                // lead the batch ourselves (it contains at least us).
                state.leader_active = true;
                let batch = std::mem::take(&mut state.queue);
                drop(state);
                let outcomes = commit(batch);
                let mut state = self.state.lock().expect("group-commit state");
                let mut mine = None;
                for (t, outcome) in outcomes {
                    if t == ticket {
                        mine = Some(outcome);
                    } else {
                        state.results.insert(t, outcome);
                    }
                }
                state.leader_active = false;
                drop(state);
                self.done.notify_all();
                return mine.expect("leader's own ticket settles with its batch");
            }
            state = self.done.wait(state).expect("group-commit state");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn payload(base: Option<u64>) -> AppendRequest {
        AppendRequest::Payload {
            base,
            new: Vec::new(),
        }
    }

    #[test]
    fn single_submitter_leads_its_own_batch_of_one() {
        let gc = GroupCommit::new();
        let result = gc.submit(payload(None), |batch| {
            assert_eq!(batch.len(), 1);
            batch.into_iter().map(|(t, _)| (t, Ok(7))).collect()
        });
        assert_eq!(result.unwrap(), 7);
    }

    #[test]
    fn concurrent_submitters_share_leaders() {
        const THREADS: usize = 8;
        let gc = Arc::new(GroupCommit::new());
        let commits = Arc::new(AtomicUsize::new(0));
        let committed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let gc = Arc::clone(&gc);
                let commits = Arc::clone(&commits);
                let committed = Arc::clone(&committed);
                s.spawn(move || {
                    let n = gc
                        .submit(payload(None), |batch| {
                            commits.fetch_add(1, Ordering::SeqCst);
                            committed.fetch_add(batch.len(), Ordering::SeqCst);
                            // Hold the "commit" long enough for others to
                            // pile into the queue behind this leader.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            let size = batch.len();
                            batch.into_iter().map(|(t, _)| (t, Ok(size))).collect()
                        })
                        .unwrap();
                    assert!(n >= 1, "a settled batch always contains its submitter");
                });
            }
        });
        // Every request is committed by exactly one leader, and no leader
        // runs an empty batch. (Full serialization by the scheduler is
        // legal, so only an upper bound holds for the commit count.)
        assert_eq!(committed.load(Ordering::SeqCst), THREADS);
        let commits = commits.load(Ordering::SeqCst);
        assert!((1..=THREADS).contains(&commits));
    }

    #[test]
    fn per_ticket_outcomes_reach_their_submitters() {
        let gc = Arc::new(GroupCommit::new());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let gc2 = Arc::clone(&gc);
            let b2 = Arc::clone(&barrier);
            let handle = s.spawn(move || {
                b2.wait();
                gc2.submit(payload(Some(1)), |batch| {
                    batch
                        .into_iter()
                        .map(|(t, req)| {
                            let n = match req {
                                AppendRequest::Payload { base: Some(b), .. } => b as usize,
                                _ => 0,
                            };
                            (t, Ok(n))
                        })
                        .collect()
                })
            });
            barrier.wait();
            let mine = gc
                .submit(payload(Some(2)), |batch| {
                    batch
                        .into_iter()
                        .map(|(t, req)| {
                            let n = match req {
                                AppendRequest::Payload { base: Some(b), .. } => b as usize,
                                _ => 0,
                            };
                            (t, Ok(n))
                        })
                        .collect()
                })
                .unwrap();
            assert_eq!(mine, 2);
            assert_eq!(handle.join().unwrap().unwrap(), 1);
        });
    }
}
