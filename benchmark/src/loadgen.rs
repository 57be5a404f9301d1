//! The closed loop: each caller is one thread with one keep-alive
//! connection and one request in flight — a route planner that waits for
//! each histogram before costing the next candidate route.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::http::Client;
use crate::world::{encode_post, shifted, Payload, Stream};

/// The timed phase of a run: callers start at once, replies count from
/// `window` to `end`.
#[derive(Clone, Copy)]
pub struct Window {
    pub window: Instant,
    pub end: Instant,
}

impl Window {
    pub fn starting_now(warmup_s: f64, measure_s: f64) -> Window {
        let window = Instant::now() + Duration::from_secs_f64(warmup_s);
        Window {
            window,
            end: window + Duration::from_secs_f64(measure_s),
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.window).as_secs_f64()
    }
}

/// What one caller saw inside the measured window.
#[derive(Default)]
pub struct CallerLog {
    /// `(completion time since window start, latency)` of every correct
    /// reply, nanoseconds.
    pub samples: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl CallerLog {
    fn fail(&mut self, counted: bool, why: impl FnOnce() -> String) {
        if counted {
            self.failed += 1;
        }
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    pub fn merge(&mut self, other: CallerLog) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// One read caller: walks its order through the request table until the
/// window closes. With `check_len` every reply must be `200` with the
/// oracle's body length for that request id; without it (answers move
/// under concurrent appends) only the status is checked.
pub fn read_caller(
    addr: SocketAddr,
    stream: &Stream,
    caller: usize,
    w: Window,
    check_len: bool,
) -> CallerLog {
    let mut log = CallerLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted = 1;
            log.fail(true, || format!("connect: {e}"));
            return log;
        }
    };
    let order = &stream.order[caller];
    let mut pos = 0usize;
    loop {
        let id = order[pos % order.len()] as usize;
        pos += 1;
        let request = &stream.requests[id];
        let t0 = Instant::now();
        if t0 >= w.end {
            return log;
        }
        let outcome = client.roundtrip(&request.http);
        let t1 = Instant::now();
        let counted = t1 >= w.window && t1 < w.end;
        log.attempted += counted as u64;
        match outcome {
            Ok(200) if !check_len || client.body().len() == request.expect_len => {
                if counted {
                    log.samples.push((
                        (t1 - w.window).as_nanos() as u64,
                        (t1 - t0).as_nanos() as u64,
                    ));
                }
            }
            Ok(status) => log.fail(counted, || {
                format!(
                    "request {id}: status {status}, {} body bytes, oracle {}",
                    client.body().len(),
                    request.expect_len
                )
            }),
            Err(e) => {
                log.fail(counted, || format!("request {id}: {e}"));
                // The connection is in an unknown state; redial.
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => return log,
                }
            }
        }
    }
}

/// The `/append` body for one batch. The benchmark encodes it itself so
/// the load generator's cost does not move with the program's encoder.
pub fn encode_append(batch: &Payload) -> Vec<u8> {
    let mut body = String::with_capacity(batch.len() * 1600);
    body.push_str("{\"trajectories\":[");
    for (t, (user, entries)) in batch.iter().enumerate() {
        if t > 0 {
            body.push(',');
        }
        let _ = write!(body, "{{\"user\":{},\"entries\":[", user.0);
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "[{},{},{}]", e.edge.0, e.enter_time, e.travel_time);
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    encode_post("/append", body.as_bytes())
}

/// The time-forward append sequence: batch `k` is batch `k mod n` of the
/// second half, moved `k div n` passes later, so the data clock only ever
/// advances.
pub struct AppendPlan<'a> {
    pub batches: &'a [Payload],
    /// Seconds one pass is shifted by: the batches' span rounded up to
    /// whole weeks, which keeps time of day and weekday aligned.
    pub pass_shift: i64,
}

impl<'a> AppendPlan<'a> {
    pub fn new(batches: &'a [Payload]) -> AppendPlan<'a> {
        let lo = batches[0][0].1[0].enter_time;
        let hi = batches
            .iter()
            .flat_map(|b| b.iter().map(|(_, e)| e[e.len() - 1].enter_time))
            .max()
            .expect("non-empty batches");
        const WEEK: i64 = 7 * 86_400;
        AppendPlan {
            batches,
            pass_shift: (hi - lo) / WEEK * WEEK + WEEK,
        }
    }

    pub fn batch(&self, k: u64) -> Payload {
        let n = self.batches.len() as u64;
        shifted(
            &self.batches[(k % n) as usize],
            (k / n) as i64 * self.pass_shift,
        )
    }
}

/// What the append caller saw.
#[derive(Default)]
pub struct AppendLog {
    pub log: CallerLog,
    /// Batches acknowledged since the caller started (warm-up included):
    /// the sequence prefix the oracle must replay.
    pub acked_batches: u64,
}

/// The append caller: loops `/append` over the plan from sequence number
/// `first`, until `w.end` or after `limit` batches.
pub fn append_caller(
    addr: SocketAddr,
    plan: &AppendPlan,
    first: u64,
    limit: u64,
    w: Window,
) -> AppendLog {
    let mut out = AppendLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.log.attempted = 1;
            out.log.fail(true, || format!("connect: {e}"));
            return out;
        }
    };
    while out.acked_batches < limit {
        let k = first + out.acked_batches;
        let batch = plan.batch(k);
        let request = encode_append(&batch);
        let want = format!("{{\"appended\":{}}}", batch.len());
        let t0 = Instant::now();
        if t0 >= w.end {
            break;
        }
        let outcome = client.roundtrip(&request);
        let t1 = Instant::now();
        let counted = t1 >= w.window && t1 < w.end;
        out.log.attempted += counted as u64;
        match outcome {
            Ok(200) if client.body() == want.as_bytes() => {
                out.acked_batches += 1;
                if counted {
                    out.log.samples.push((
                        (t1 - w.window).as_nanos() as u64,
                        (t1 - t0).as_nanos() as u64,
                    ));
                }
            }
            Ok(status) => {
                let body = String::from_utf8_lossy(client.body()).into_owned();
                out.log
                    .fail(counted, || format!("append {k}: status {status}: {body}"));
                // An unacknowledged batch may or may not have landed: the
                // sequence can no longer be replayed by the oracle.
                break;
            }
            Err(e) => {
                out.log.fail(counted, || format!("append {k}: {e}"));
                break;
            }
        }
    }
    out
}
