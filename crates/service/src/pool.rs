//! A worker thread pool with helper-joined fan-out.
//!
//! The pool is deliberately simple — a shared injector queue drained by a
//! fixed set of workers — but its join primitive is not: [`ThreadPool::run_all`]
//! keeps the *submitting* thread working on its own task set while it
//! waits. That makes nested fan-out safe: the server hands `/batch` to a
//! worker, and that worker fans the batch's trips out through the same
//! pool without risking deadlock, because every joiner can always drain
//! its own tasks even when all workers are busy with other joiners' work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering from poisoning: a panicked job must not take
/// the whole service down with secondary lock panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// Fixed-size worker thread pool.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tthr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a fire-and-forget job.
    pub fn execute(&self, job: Job) {
        lock(&self.shared.queue).push_back(job);
        self.shared.available.notify_one();
    }

    /// Runs `jobs` to completion across the pool *and* the calling thread,
    /// returning the results in input order.
    ///
    /// The caller never blocks while its own jobs are runnable: it drains
    /// the task set alongside the workers and only sleeps once every job
    /// has been claimed. Panicking jobs leave `None` holes that surface as
    /// a panic here, on the submitting thread.
    pub fn run_all<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        match n {
            0 => return Vec::new(),
            1 => {
                let mut jobs = jobs;
                return vec![jobs.pop().expect("one job")()];
            }
            _ => {}
        }
        let group = Arc::new(Group {
            tasks: Mutex::new(jobs.into_iter().enumerate().collect()),
            results: Mutex::new((0..n).map(|_| None).collect()),
            progress: Mutex::new(Progress { remaining: n }),
            done: Condvar::new(),
        });
        // One wake-up ticket per job beyond the one the caller runs itself;
        // a ticket that finds the task set already drained is a no-op.
        for _ in 0..n - 1 {
            let group = Arc::clone(&group);
            self.execute(Box::new(move || {
                group.run_one();
            }));
        }
        while group.run_one() {}
        // Every task is claimed now; any still running belong to workers.
        let mut progress = lock(&group.progress);
        while progress.remaining > 0 {
            progress = group.done.wait(progress).unwrap_or_else(|e| e.into_inner());
        }
        drop(progress);
        let mut slots = lock(&group.results);
        slots
            .iter_mut()
            .enumerate()
            .map(|(i, s)| s.take().unwrap_or_else(|| panic!("pool job {i} panicked")))
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // A job holding the last handle to the pool's owner drops the
            // pool *on a worker*: that worker cannot join itself (EDEADLK).
            // Its handle is dropped instead — the thread detaches and
            // exits through the shutdown flag once this job returns.
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            // Contain panics to the job: the worker survives, and for
            // `run_all` tasks the drop guard in `Group::run_one` has already
            // released the joiner, which surfaces the panic as a missing
            // result on the submitting thread.
            Some(job) => {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

struct Progress {
    remaining: usize,
}

struct Group<T, F> {
    tasks: Mutex<VecDeque<(usize, F)>>,
    results: Mutex<Vec<Option<T>>>,
    progress: Mutex<Progress>,
    done: Condvar,
}

impl<T, F: FnOnce() -> T> Group<T, F> {
    /// Claims and runs one task; `false` when the set is drained. The
    /// remaining-counter decrement is a drop guard so a panicking task
    /// still releases its joiner.
    fn run_one(&self) -> bool {
        let Some((i, task)) = lock(&self.tasks).pop_front() else {
            return false;
        };
        struct Complete<'a> {
            progress: &'a Mutex<Progress>,
            done: &'a Condvar,
        }
        impl Drop for Complete<'_> {
            fn drop(&mut self) {
                let mut progress = lock(self.progress);
                progress.remaining -= 1;
                if progress.remaining == 0 {
                    self.done.notify_all();
                }
            }
        }
        let _complete = Complete {
            progress: &self.progress,
            done: &self.done,
        };
        let out = task();
        lock(&self.results)[i] = Some(out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_all_returns_in_order() {
        let pool = ThreadPool::new(4);
        let jobs: Vec<_> = (0..64).map(|i| move || i * 2).collect();
        assert_eq!(
            pool.run_all(jobs),
            (0..64).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        // More outer jobs than workers, each fanning out inner jobs on the
        // same single-worker pool: only helper-joining can finish this.
        let pool = Arc::new(ThreadPool::new(1));
        let outer: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                move || {
                    let inner: Vec<_> = (0..4).map(|j| move || i * 10 + j).collect();
                    pool.run_all(inner).into_iter().sum::<usize>()
                }
            })
            .collect();
        let sums = pool.run_all(outer);
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s, i * 40 + 6);
        }
    }

    #[test]
    fn empty_and_single_job_sets() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.run_all(Vec::<fn() -> u32>::new()), Vec::<u32>::new());
        assert_eq!(pool.run_all(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        let pool = ThreadPool::new(2);
        let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<_> = (0..8)
                .map(|i| {
                    move || {
                        if i == 3 {
                            panic!("job failure");
                        }
                        i
                    }
                })
                .collect();
            pool.run_all(jobs)
        }));
        assert!(batch.is_err(), "the panic must surface to the submitter");
        // Workers survive the panic: the pool still completes fresh work.
        let jobs: Vec<_> = (0..16usize).map(|i| move || i + 1).collect();
        assert_eq!(pool.run_all(jobs), (1..=16).collect::<Vec<_>>());
    }

    /// The last owner of a pool can be one of its own jobs (a request
    /// holding the final service handle after the server shut down):
    /// dropping the pool there must neither panic nor hang, and the
    /// other workers are still joined.
    #[test]
    fn dropping_the_pool_from_inside_a_job_does_not_self_join() {
        let pool = Arc::new(ThreadPool::new(2));
        let (held, release) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel::<bool>();
        let last = Arc::clone(&pool);
        pool.execute(Box::new(move || {
            // Wait until the spawning thread has given up its handle, so
            // this drop is the one that runs `ThreadPool::drop`.
            release.recv().expect("released");
            let dropped_here = Arc::strong_count(&last) == 1;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
            done.send(dropped_here && outcome.is_ok()).expect("report");
        }));
        drop(pool);
        held.send(()).expect("job is waiting");
        let ok = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the in-job drop returned");
        assert!(
            ok,
            "the job held the last handle and its drop did not panic"
        );
    }

    #[test]
    fn execute_runs_detached_jobs() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.execute(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 32 {
            assert!(std::time::Instant::now() < deadline, "jobs must drain");
            std::thread::yield_now();
        }
    }
}
