//! Keep-awake threads: one `SCHED_IDLE` spinner per core for the life of
//! the process.
//!
//! On a shared virtual machine an idle vCPU halts and the host gives the
//! core away; every request of a closed loop then pays several wake-ups
//! whose cost depends on what the host is doing (measured here: ±10 %
//! between runs, and a fifth slower). A spinner the kernel runs *only*
//! when nothing else wants the core keeps the vCPU scheduled without
//! taking time from the program — the software equivalent of switching
//! deep idle states off on a benchmark machine. Its CPU time is excluded
//! from `proc.cpu_us_per_op` (see [`crate::procfs::cpu_us`]).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Thread name, as `/proc/self/task/*/stat` shows it.
pub const THREAD_NAME: &str = "keep-awake";

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE` policy number.
const SCHED_IDLE: i32 = 5;

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Threads that got the idle policy and are spinning.
    pub spinning: usize,
}

impl KeepAwake {
    pub fn start(cores: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(std::sync::Barrier::new(cores + 1));
        let spinning = Arc::new(AtomicUsize::new(0));
        let threads = (0..cores)
            .map(|_| {
                let (stop, ready, spinning) = (stop.clone(), ready.clone(), spinning.clone());
                std::thread::Builder::new()
                    .name(THREAD_NAME.to_string())
                    .spawn(move || {
                        let priority = 0i32;
                        // SAFETY: `sched_setscheduler(0, …)` changes the policy of
                        // the calling thread only; `param` points to a live
                        // `struct sched_param { int sched_priority; }`, which
                        // `SCHED_IDLE` requires to be 0.
                        let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                        if idle {
                            spinning.fetch_add(1, Ordering::SeqCst);
                        }
                        ready.wait();
                        // At normal priority a spinner would take a core from the
                        // program under test, so without the idle policy: no spin.
                        // No PAUSE in the loop: in a guest it can trigger the very
                        // exits this thread exists to avoid.
                        while idle && !stop.load(Ordering::Relaxed) {
                            for i in 0..4096u64 {
                                std::hint::black_box(i);
                            }
                        }
                    })
                    .expect("spawn keep-awake thread")
            })
            .collect();
        ready.wait();
        KeepAwake {
            stop,
            threads,
            spinning: spinning.load(Ordering::SeqCst),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
