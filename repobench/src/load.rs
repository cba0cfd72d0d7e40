//! The query load: closed-loop clients and the open-loop rate ladder.
//!
//! Users come from [`UserPicker`] (Zipf popularity, hash-spread over
//! user ids). Before each query a client loads the currently published
//! seed, so no query asks for a generation the daemon never had or has
//! already evicted. Latency is timed around each call from outside.

use crate::layers::{self, Serving, UserPicker};
use crate::stats::{Report, Samples};
use crate::trace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use socialrec_core::TopN;
use socialrec_graph::UserId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Open-loop generator threads.
pub const GENERATORS: u64 = 2;
/// The ladder's first rate (queries/s); `loadgen.open_p90_us` is its p90.
pub const REF_RATE: f64 = 4000.0;
/// How long the reference rate runs.
const REF_SECONDS: f64 = 2.5;
/// How long every higher rate runs: long enough that one burst of host
/// stalls spoils a minority of its windows.
const STEP_SECONDS: f64 = 0.6;
/// Each ladder rate is this multiple of the one before (2^(1/3)).
pub const LADDER_RATIO: f64 = 1.259_921_049_894_873;
/// Rates on the ladder.
pub const LADDER_STEPS: i32 = 14;
/// Windows of consecutive requests a step's p90 is taken over.
const OPEN_WINDOWS: usize = 6;
/// The latency limit a ladder rate must meet: its p90, timed from each
/// request's scheduled send, and the generators' lag when the rate ends.
///
/// The ladder judges p90, not p99: on the 2-vCPU KVM guests this was
/// tuned on, a spinning thread loses 1-4 ms at a time, 2-19% of each
/// second, so an open-loop p99 reads either the service tail or the
/// stall tail from one run to the next. A window's p90 clears all but
/// the worst stall bursts, and the lower quartile over windows clears
/// those.
pub const LIMIT_US: f64 = 1000.0;
/// The percentile the ladder judges and `loadgen.open_p90_us` reports.
pub const OPEN_QUANTILE: f64 = 0.9;
/// A generator sleeps until this close to a send time, then spins.
const SPIN: Duration = Duration::from_millis(2);
/// Closed-loop latency and throughput are taken per window of this
/// length (see `common::report_queries`).
pub const WINDOW: Duration = Duration::from_millis(250);
/// In a traced run, clients alternate blocks of this many traced and
/// untraced queries.
const TRACE_BLOCK: u64 = 256;
/// A client keeps every this-many-th answer for the output check.
const KEEP_EVERY: u64 = 101;
/// Answers a client keeps at most.
const KEPT_MAX: usize = 400;
/// Traced queries a client logs for the kernel/top-N replay.
const TRACED_MAX: usize = 4000;
/// Client ids of the open-loop generators (they share the query ids).
const GENERATOR_CLIENT: u64 = 128;

pub fn rng_for(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// A query's request id: client in the high bits, sequence below.
fn query_id(client: u64, seq: u64) -> u64 {
    (client << 32) | (seq & 0xFFFF_FFFF)
}

pub fn us_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

/// What every client and generator driving one daemon shares.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub seed: u64,
    pub picker: &'a UserPicker,
    /// The seed of the release currently published.
    pub current: &'a AtomicU64,
    pub serving: &'a Serving<'a>,
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ClientLog {
    pub latency_us: Vec<f64>,
    /// Latency sum and count of traced, then untraced, queries.
    pub traced: (f64, u64),
    pub untraced: (f64, u64),
    /// Users and latencies of traced queries, for the replay.
    pub traced_queries: Vec<(UserId, f64)>,
    /// When this client first got an answer on each seed.
    pub first_answer: Vec<(u64, Instant)>,
    /// Answers kept for the output check, with their seeds.
    pub kept: Vec<(u64, TopN)>,
    /// Largest admission backlog seen on a queried shard.
    pub depth_max: i64,
    /// `(queries answered, seconds since the client started)` at the end
    /// of each [`WINDOW`]; a last partial window counts when at least
    /// half as long.
    pub windows: Vec<(usize, f64)>,
}

/// One closed-loop client: query, wait for the answer, repeat until
/// `stop` is set.
fn closed_client(load: Load<'_>, client: u64, stop: &AtomicBool) -> ClientLog {
    let mut rng = rng_for(load.seed, 0xC11E_0000 + client);
    let mut log = ClientLog::default();
    let mut last_seed = None;
    let mut seq = 0u64;
    let start = Instant::now();
    let mut window_end = start + WINDOW;
    while !stop.load(Ordering::Relaxed) {
        trace::set_recording((seq / TRACE_BLOCK) % 2 == 1);
        let traced = trace::recording();
        let user = load.picker.pick(&mut rng);
        let s = load.current.load(Ordering::SeqCst);
        let t = Instant::now();
        let top = load.serving.query(user, s, query_id(client, seq));
        let done = Instant::now();
        let us = us_between(t, done);
        log.latency_us.push(us);
        if traced {
            log.traced = (log.traced.0 + us, log.traced.1 + 1);
            if log.traced_queries.len() < TRACED_MAX {
                log.traced_queries.push((user, us));
            }
        } else {
            log.untraced = (log.untraced.0 + us, log.untraced.1 + 1);
        }
        let first = last_seed != Some(s);
        if first {
            log.first_answer.push((s, done));
            last_seed = Some(s);
        }
        if (first || seq.is_multiple_of(KEEP_EVERY)) && log.kept.len() < KEPT_MAX {
            log.kept.push((s, top));
        }
        log.depth_max = log.depth_max.max(load.serving.depth_of(user));
        seq += 1;
        if done >= window_end {
            log.windows.push((log.latency_us.len(), us_between(start, done) / 1e6));
            window_end += WINDOW;
        }
    }
    trace::set_recording(true);
    let (counted, at) = log.windows.last().copied().unwrap_or((0, 0.0));
    let elapsed = start.elapsed().as_secs_f64();
    if log.latency_us.len() > counted && elapsed - at >= WINDOW.as_secs_f64() / 2.0 {
        log.windows.push((log.latency_us.len(), elapsed));
    }
    log
}

/// Sets its flag when dropped, so clients stop even if `main` panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Run `clients` closed-loop clients while `main` runs on the calling
/// thread; they stop when it returns. A client that panicked counts as
/// a failure.
pub fn with_clients(
    load: Load<'_>,
    clients: u64,
    report: &mut Report,
    main: impl FnOnce(&mut Report),
) -> Vec<ClientLog> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let handles: Vec<_> =
            (0..clients).map(|c| s.spawn(move || closed_client(load, c, stop))).collect();
        {
            let _stop = StopOnDrop(stop);
            main(report);
        }
        let mut logs = Vec::new();
        for h in handles {
            match h.join() {
                Ok(log) => logs.push(log),
                Err(_) => report.fail("a closed-loop client panicked".to_string()),
            }
        }
        logs
    })
}

/// One rate of the ladder.
pub struct Step {
    pub rate: f64,
    pub requests: usize,
    /// The p90 latency (µs, from scheduled send) of each of the step's
    /// [`OPEN_WINDOWS`] consecutive windows of requests.
    pub window_p90_us: Samples,
    /// The generators' largest lag behind schedule (ms), and their lag
    /// (median per generator, the larger one) over the step's last
    /// quarter, which grows when the daemon cannot keep up.
    pub lag_max_ms: f64,
    pub lag_late_ms: f64,
}

impl Step {
    /// The lower quartile over the step's windows of each window's p90:
    /// a burst of host stalls spoils some windows, not the step.
    pub fn p90_us(&self) -> f64 {
        self.window_p90_us.quantile(0.25)
    }

    /// Whether the rate met the limit without the generators falling
    /// behind: a growing lag counts as missing it.
    pub fn passed(&self) -> bool {
        self.p90_us() <= LIMIT_US && self.lag_late_ms * 1e3 <= LIMIT_US
    }
}

pub struct Ladder {
    pub steps: Vec<Step>,
    /// The highest rate meeting the limit, interpolated (log-log)
    /// between it and the next rate, which missed.
    pub max_rate: f64,
}

/// Walk the fixed rate ladder up from [`REF_RATE`] until two rates in a
/// row miss the limit (or the ladder ends).
pub fn ladder(load: Load<'_>, report: &mut Report) -> Ladder {
    let mut steps: Vec<Step> = Vec::new();
    for k in 0..LADDER_STEPS {
        let rate = REF_RATE * LADDER_RATIO.powi(k);
        let seconds = if k == 0 { REF_SECONDS } else { STEP_SECONDS };
        let step = open_step(load, rate, (rate * seconds) as usize, k as u64, report);
        report.ops(step.requests as u64);
        steps.push(step);
        if steps.len() >= 2 && steps[steps.len() - 2..].iter().all(|s| !s.passed()) {
            break;
        }
    }
    let max_rate = max_rate(&steps);
    Ladder { steps, max_rate }
}

fn max_rate(steps: &[Step]) -> f64 {
    let last_pass = steps.iter().rposition(Step::passed);
    match (last_pass, last_pass.map_or(steps.first(), |i| steps.get(i + 1))) {
        (Some(i), Some(miss)) if miss.p90_us() > LIMIT_US => {
            let pass = &steps[i];
            let (lp, lm) = (pass.p90_us().max(1e-3).ln(), miss.p90_us().ln());
            let t = if lm > lp { ((LIMIT_US.ln() - lp) / (lm - lp)).clamp(0.0, 1.0) } else { 0.0 };
            (pass.rate.ln() + t * (miss.rate.ln() - pass.rate.ln())).exp()
        }
        (Some(i), _) => steps[i].rate,
        (None, Some(first)) => first.rate * (LIMIT_US / first.p90_us().max(1e-3)).min(1.0),
        (None, None) => 0.0,
    }
}

/// Sleep until `target`.
pub fn sleep_until(target: Instant) {
    std::thread::sleep(target.saturating_duration_since(Instant::now()));
}

/// Sleep, then spin, until `target`.
fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Poisson arrivals at `rate` in total from [`GENERATORS`] threads, each
/// request timed from its scheduled send.
fn open_step(load: Load<'_>, rate: f64, requests: usize, step: u64, report: &mut Report) -> Step {
    let per_generator = requests / GENERATORS as usize;
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..GENERATORS)
            .map(|g| {
                s.spawn(move || {
                    let mut rng = rng_for(load.seed, 0x0BE0_0000 + 16 * step + g);
                    let (mut latency, mut lag) =
                        (Vec::with_capacity(per_generator), Vec::with_capacity(per_generator));
                    let mut due = 0.0f64;
                    for i in 0..per_generator {
                        due += layers::poisson_gap(&mut rng, rate / GENERATORS as f64);
                        let target = start + Duration::from_secs_f64(due);
                        wait_until(target);
                        lag.push(us_between(target, Instant::now()) / 1e3);
                        let user = load.picker.pick(&mut rng);
                        let s = load.current.load(Ordering::SeqCst);
                        let id = query_id(GENERATOR_CLIENT + g, i as u64);
                        std::hint::black_box(load.serving.query(user, s, id));
                        latency.push(us_between(target, Instant::now()));
                    }
                    (latency, lag)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut generators = Vec::new();
    for r in results {
        match r {
            Ok(g) => generators.push(g),
            Err(_) => {
                report.fail(format!("an open-loop generator panicked at {rate:.0} queries/s"))
            }
        }
    }
    let mut out = Step {
        rate,
        requests: 0,
        window_p90_us: Samples::default(),
        lag_max_ms: 0.0,
        lag_late_ms: 0.0,
    };
    for w in 0..OPEN_WINDOWS {
        let mut window = Samples::default();
        for (latency, _) in &generators {
            let n = latency.len();
            window
                .extend(latency[w * n / OPEN_WINDOWS..(w + 1) * n / OPEN_WINDOWS].iter().copied());
        }
        out.window_p90_us.push(window.quantile(OPEN_QUANTILE));
    }
    for (latency, lag) in &generators {
        out.requests += latency.len();
        out.lag_max_ms = lag.iter().copied().fold(out.lag_max_ms, f64::max);
        let mut late = Samples::default();
        late.extend(lag[lag.len() * 3 / 4..].iter().copied());
        out.lag_late_ms = out.lag_late_ms.max(late.median());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p90: f64) -> Step {
        let mut window_p90_us = Samples::default();
        window_p90_us.extend([p90; OPEN_WINDOWS]);
        Step { rate, requests: 1000, window_p90_us, lag_max_ms: 0.0, lag_late_ms: 0.0 }
    }

    #[test]
    fn max_rate_interpolates_between_the_last_pass_and_the_first_miss() {
        let r = max_rate(&[step(1000.0, 100.0), step(2000.0, LIMIT_US * 10.0)]);
        assert!((r - 2000.0 / std::f64::consts::SQRT_2).abs() < 1e-6, "{r}");
        assert_eq!(max_rate(&[step(1000.0, 100.0), step(2000.0, 200.0)]), 2000.0);
        assert_eq!(max_rate(&[step(1000.0, LIMIT_US * 2.0)]), 500.0);
    }
}
