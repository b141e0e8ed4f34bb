//! The `service` half of `service_paced`: an open-loop paced client in front
//! of the shards, kill-restart drills under that load, and a closed-loop
//! flood for saturation — all through `service`'s public API.
//!
//! One client thread paces requests at fixed due times and stamps each
//! request with the time it was *due*, so a stall (of the generator or of a
//! shard) shows up in the latency of every request it delayed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use service::generator::op_key;
use service::{
    hash_key, run_shard, EnqueueError, Percentiles, Request, RequestGen, ShardShared, Zipfian,
};

use crate::util::quantile_ns;
use crate::workloads::{Mix, ServiceSpec, Spec, THETA};

/// How requests arrive.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Open loop: `rate` requests per second for `secs` seconds.
    Paced { rate: u64, secs: f64 },
    /// Open loop at `rate` for as long as the drills take.
    PacedThroughDrills { rate: u64 },
    /// Closed loop: the next request is submitted as soon as the previous one
    /// was accepted (a full queue pushes back), for `secs` seconds.
    Flood { secs: f64 },
}

/// A refused request is offered again with doubling backoff (the router's
/// policy) for this long in total before it counts as failed.
const RETRY_BUDGET: Duration = Duration::from_millis(250);
const FIRST_BACKOFF: Duration = Duration::from_micros(100);
const MAX_BACKOFF: Duration = Duration::from_millis(5);
/// Bound on the shards' final read-out (chain nodes walked), far above the keyspace.
const DRAIN_CAP: usize = 1 << 20;

/// One kill-restart cycle.
#[derive(Clone, Copy, Debug)]
pub struct Drill {
    pub full_system: bool,
    pub detect_ms: f64,
    pub replay_ms: f64,
    /// Kill → serving again.
    pub total_ms: f64,
    /// Requests the surviving shards completed during a shard-local outage.
    pub healthy_ops_during_outage: u64,
    pub within_deadline: bool,
}

/// What one service session measured.
#[derive(Clone, Debug)]
pub struct Served {
    /// Start → every shard serving.
    pub setup_s: f64,
    pub issued: u64,
    /// Requests still refused when the retry budget ran out.
    pub refused: u64,
    pub retries: u64,
    pub completed: u64,
    /// Due → acknowledged, over every completed request.
    pub latency: Percentiles,
    /// `now − due` when the generator got to each request.
    pub gen_late_p99_us: f64,
    pub gen_late_max_us: f64,
    /// Span around the enqueue call (traced sessions only).
    pub submit_ns_p50: Option<f64>,
    /// Last request submitted → every accepted request acknowledged.
    pub drain_ms: f64,
    /// Generator's first to last request.
    pub load_secs: f64,
    pub drills: Vec<Drill>,
    /// `ShardReport::violations`, plus drills that could not run.
    pub violations: Vec<String>,
    pub kills_mid_op: u64,
    pub resumed_ops: u64,
    pub reexecuted_ops: u64,
}

struct Generated {
    issued: u64,
    accepted: u64,
    refused: u64,
    retries: u64,
    late_ns: Vec<u32>,
    submit_ns: Vec<u32>,
    secs: f64,
}

/// A refused request waiting for its next attempt. Parked, not slept on: the
/// clients an open loop stands for are independent, so one request's retry
/// must not hold back the requests behind it.
struct Parked {
    req: Request,
    shard: usize,
    first_refused: Instant,
    next_try: Instant,
    backoff: Duration,
}

/// Offer every parked request whose backoff has run out.
fn retry_parked(
    shards: &[ShardShared],
    parked: &mut VecDeque<Parked>,
    now: Instant,
    out: &mut Generated,
) {
    while parked.front().is_some_and(|p| p.next_try <= now) {
        let mut p = parked.pop_front().expect("front was just seen");
        out.retries += 1;
        if shards[p.shard].try_enqueue(p.req).is_ok() {
            out.accepted += 1;
        } else if now - p.first_refused > RETRY_BUDGET {
            out.refused += 1;
        } else {
            p.backoff = (p.backoff * 2).min(MAX_BACKOFF);
            p.next_try = now + p.backoff;
            parked.push_back(p);
        }
    }
}

fn generate(
    shards: &[ShardShared],
    mut gen: RequestGen,
    load: Load,
    stop: &AtomicBool,
    traced: bool,
) -> Generated {
    let mut out = Generated {
        issued: 0,
        accepted: 0,
        refused: 0,
        retries: 0,
        late_ns: Vec::new(),
        submit_ns: Vec::new(),
        secs: 0.0,
    };
    let mut parked = VecDeque::new();
    let start = Instant::now();
    let (interval_ns, limit) = match load {
        Load::Paced { rate, secs } => (1e9 / rate as f64, Some(Duration::from_secs_f64(secs))),
        Load::PacedThroughDrills { rate } => (1e9 / rate as f64, None),
        Load::Flood { secs } => (0.0, Some(Duration::from_secs_f64(secs))),
    };
    let paced = interval_ns > 0.0;
    loop {
        let due = start + Duration::from_nanos((out.issued as f64 * interval_ns) as u64);
        let now = loop {
            let now = Instant::now();
            retry_parked(shards, &mut parked, now, &mut out);
            // A closed loop has one request outstanding: it waits for its
            // refused request instead of making the next.
            if now >= due && (paced || parked.is_empty()) {
                break now;
            }
            std::hint::spin_loop();
        };
        match limit {
            Some(limit) if now - start >= limit => break,
            None if stop.load(Ordering::Relaxed) => break,
            _ => {}
        }
        let op = gen.next_op();
        let shard = (hash_key(op_key(op)) % shards.len() as u64) as usize;
        // A closed-loop request is due the moment it is made.
        let req = Request {
            op,
            enqueued_at: if paced { due } else { now },
        };
        if paced {
            out.late_ns
                .push((now - due).as_nanos().min(u32::MAX as u128) as u32);
        }
        match shards[shard].try_enqueue(req) {
            Ok(()) => out.accepted += 1,
            Err(EnqueueError::Down | EnqueueError::Full) => parked.push_back(Parked {
                req,
                shard,
                first_refused: now,
                next_try: now + FIRST_BACKOFF,
                backoff: FIRST_BACKOFF,
            }),
        }
        if traced {
            out.submit_ns
                .push(now.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        out.issued += 1;
    }
    out.secs = start.elapsed().as_secs_f64();
    while !parked.is_empty() {
        retry_parked(shards, &mut parked, Instant::now(), &mut out);
        thread::sleep(FIRST_BACKOFF);
    }
    out
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while !done() {
        if start.elapsed() > deadline {
            return false;
        }
        thread::sleep(Duration::from_micros(200));
    }
    true
}

fn run_drills(
    shards: &[ShardShared],
    svc: &ServiceSpec,
    violations: &mut Vec<String>,
) -> Vec<Drill> {
    let deadline = Duration::from_millis(svc.recovery_deadline_ms);
    let watchdog = deadline * 10;
    let all_serving = |shards: &[ShardShared]| shards.iter().all(ShardShared::is_serving);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut drills = Vec::new();
    for index in 0..svc.drills {
        if !wait_until(watchdog, || all_serving(shards)) {
            violations.push(format!("drill {index}: service never reached all-serving"));
            break;
        }
        thread::sleep(Duration::from_millis(svc.drill_spacing_ms));
        let full_system = (index + 1) % svc.full_system_every == 0;
        let victims: Vec<&ShardShared> = if full_system {
            shards.iter().collect()
        } else {
            vec![&shards[index % shards.len()]]
        };
        let healthy = || -> u64 {
            shards
                .iter()
                .filter(|s| !victims.iter().any(|v| v.id == s.id))
                .map(|s| s.completed_ops())
                .sum()
        };
        let healthy_before = healthy();
        let killed = Instant::now();
        if !victims.iter().all(|v| v.request_kill()) {
            violations.push(format!("drill {index}: a serving shard refused the kill"));
            break;
        }
        if !wait_until(watchdog, || victims.iter().all(|v| v.is_serving())) {
            violations.push(format!(
                "drill {index}: not serving {watchdog:?} after the kill"
            ));
            break;
        }
        let total = killed.elapsed();
        let healthy_ops_during_outage = healthy() - healthy_before;
        let recoveries: Vec<_> = victims.iter().filter_map(|v| v.last_recovery()).collect();
        let Some(&(detect, replay, shard_total)) = recoveries.iter().max_by_key(|r| r.2) else {
            violations.push(format!("drill {index}: no recovery was recorded"));
            break;
        };
        // One shard times itself; a full-system outage ends when the last
        // shard serves again, as the caller sees it.
        let total = if full_system { total } else { shard_total };
        drills.push(Drill {
            full_system,
            detect_ms: ms(detect),
            replay_ms: ms(replay),
            total_ms: ms(total),
            healthy_ops_during_outage,
            within_deadline: total <= deadline,
        });
    }
    drills
}

/// Bring the service up, apply `load` (running the drill schedule under it
/// when the load says so), let the backlog drain, shut down and collect the
/// shards' reports.
pub fn serve(spec: &Spec, seed: u64, load: Load, traced: bool) -> Served {
    let svc = spec.service.expect("a service workload");
    let Mix::Keyed { keys, read_pct, .. } = spec.mix else {
        panic!("the service takes keyed requests");
    };
    pmem::install_quiet_crash_hook();
    let gen = RequestGen::new(hash_key(seed), Zipfian::new(keys, THETA), read_pct);
    let start = Instant::now();
    let shards: Vec<ShardShared> = (0..svc.shards)
        .map(|i| ShardShared::new(i, svc.queue_cap, start))
        .collect();
    let stop = AtomicBool::new(false);
    let mut violations = Vec::new();
    thread::scope(|s| {
        let executors: Vec<_> = shards
            .iter()
            .map(|shard| s.spawn(move || run_shard(shard, svc.workers_per_shard, DRAIN_CAP)))
            .collect();
        if !wait_until(Duration::from_secs(10), || {
            shards.iter().all(ShardShared::is_serving)
        }) {
            violations.push("the service never started serving".to_string());
        }
        let setup_s = start.elapsed().as_secs_f64();
        let client = {
            let (shards, stop) = (&shards, &stop);
            s.spawn(move || generate(shards, gen, load, stop, traced))
        };
        let drills = match load {
            Load::PacedThroughDrills { .. } => run_drills(&shards, &svc, &mut violations),
            _ => Vec::new(),
        };
        stop.store(true, Ordering::Relaxed);
        let mut generated = client.join().expect("client thread panicked");
        let submitted = Instant::now();
        let completed = || shards.iter().map(ShardShared::completed_ops).sum::<u64>();
        if !wait_until(Duration::from_secs(10), || {
            completed() >= generated.accepted
        }) {
            violations.push(format!(
                "backlog never drained: {} of {}",
                completed(),
                generated.accepted
            ));
        }
        let drain_ms = submitted.elapsed().as_secs_f64() * 1e3;
        for shard in &shards {
            shard.request_stop();
        }
        let reports: Vec<_> = executors
            .into_iter()
            .map(|e| e.join().expect("shard executor panicked"))
            .collect();
        let mut latency = service::LatencyHistogram::new();
        for r in &reports {
            latency.merge(&r.latency);
            violations.extend(r.violations.iter().cloned());
        }
        let late = &mut generated.late_ns;
        Served {
            setup_s,
            issued: generated.issued,
            refused: generated.refused,
            retries: generated.retries,
            completed: reports.iter().map(|r| r.completed).sum(),
            latency: latency.percentiles(),
            gen_late_p99_us: if late.is_empty() {
                0.0
            } else {
                quantile_ns(late, 0.99) / 1e3
            },
            gen_late_max_us: late.iter().max().map_or(0.0, |&ns| ns as f64 / 1e3),
            submit_ns_p50: (!generated.submit_ns.is_empty())
                .then(|| quantile_ns(&mut generated.submit_ns, 0.5)),
            drain_ms,
            load_secs: generated.secs,
            drills,
            violations: std::mem::take(&mut violations),
            kills_mid_op: reports.iter().map(|r| r.kills_mid_op).sum(),
            resumed_ops: reports.iter().map(|r| r.resumed_ops).sum(),
            reexecuted_ops: reports.iter().map(|r| r.reexecuted_ops).sum(),
        }
    })
}
