//! One shard of the service: a persistent arena (the medium), a detectable
//! [`GeneralSet`] over it, and a pool of worker incarnations that serve
//! requests across kill-restart cycles.
//!
//! # Shard lifecycle
//!
//! A shard executor owns the arena for the shard's whole life and runs a loop
//! of *incarnations*. Each incarnation builds a machine over the surviving
//! arena ([`PMem::new`] the first time, [`pmem::PMem::with_arena`] after a
//! kill), spawns one OS thread per worker pid, and serves until the shard is
//! killed or the service stops:
//!
//! ```text
//!   Serving --(kill flag)--> Draining --(workers unwound+joined, crash_all)-->
//!   Recovering --(attach + resume in-flight ops, barrier)--> Serving
//! ```
//!
//! A kill is delivered two ways at once: workers poll the flag between
//! requests, and a [`CrashSchedule`] (`KillSwitch`) raises a genuine
//! [`CrashSignal`](pmem::CrashSignal) at the next simulated instruction of any
//! worker that is mid-operation — with
//! [`set_unwind_on_crash`](capsules::CapsuleRuntime::set_unwind_on_crash) the
//! signal unwinds the whole incarnation instead of being absorbed, losing its
//! volatile state exactly as the PPM model prescribes. Once every worker has
//! quiesced the executor applies the machine-level damage (`crash_all`: every
//! unflushed line rolls back), drops the machine, and starts the next
//! incarnation over the same arena.
//!
//! # Exactly-once across kills
//!
//! Every request is stamped with a per-worker ticket that the operation's
//! entry boundary persists next to its arguments. On restart a worker
//! re-attaches its capsule frame and calls
//! [`resume_interrupted`](structs::GeneralSet::resume_interrupted):
//! a matching ticket settles the in-flight request with its exactly-once
//! result (resumed to completion, or read back if it had finished but the ack
//! was lost); a stale ticket proves the kill hit before the entry boundary, so
//! nothing reached the structure and the request is executed fresh. The
//! per-key balance oracle at shutdown checks the sum of acknowledged effects
//! against the drained structure.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use capsules::BoundaryStyle;
use pmem::{catch_crash, CacheAligned, CrashSchedule, MemConfig, Mode, PMem};
use structs::{GeneralSet, StructHandle, StructOp};

use crate::metrics::LatencyHistogram;

/// Shard states (stored in an `AtomicU8`).
pub const STATE_SERVING: u8 = 0;
/// A kill was requested; workers are unwinding.
pub const STATE_DRAINING: u8 = 1;
/// Workers quiesced, machine crashed; replaying recovery state.
pub const STATE_RECOVERING: u8 = 2;
/// Graceful shutdown complete.
pub const STATE_STOPPED: u8 = 3;

/// One queued request.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// The keyed set operation to apply.
    pub op: StructOp,
    /// Submission time (latency is measured enqueue → ack, so downtime spent
    /// buffered during a drill shows up in the tail).
    pub enqueued_at: Instant,
}

/// Why an enqueue was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The shard is not serving (killed / recovering / stopped).
    Down,
    /// The shard is serving but its queue is at capacity.
    Full,
}

/// The part of a shard visible to the clients and the kill controller. The
/// executor side (arena, structure, worker state) lives in [`run_shard`].
#[derive(Debug)]
pub struct ShardShared {
    /// Shard index.
    pub id: usize,
    state: AtomicU8,
    kill: Arc<AtomicBool>,
    stop: AtomicBool,
    /// Timestamps of the current kill cycle, as nanoseconds since `epoch`.
    kill_at_ns: AtomicU64,
    quiesced_at_ns: AtomicU64,
    ready_at_ns: AtomicU64,
    /// Operations completed (acknowledged) by this shard so far.
    completed: AtomicU64,
    queue: Mutex<VecDeque<Request>>,
    queue_cond: Condvar,
    queue_cap: usize,
    epoch: Instant,
}

impl ShardShared {
    /// A new shard handle in the `Recovering` state: [`try_enqueue`](Self::try_enqueue)
    /// refuses every request with [`EnqueueError::Down`] until [`run_shard`]'s
    /// first incarnation has attached its structure and moved the shard to
    /// `Serving`.
    pub fn new(id: usize, queue_cap: usize, epoch: Instant) -> ShardShared {
        ShardShared {
            id,
            state: AtomicU8::new(STATE_RECOVERING),
            kill: Arc::new(AtomicBool::new(false)),
            stop: AtomicBool::new(false),
            kill_at_ns: AtomicU64::new(0),
            quiesced_at_ns: AtomicU64::new(0),
            ready_at_ns: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            queue_cap,
            epoch,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Current lifecycle state (one of the `STATE_*` constants).
    pub fn state(&self) -> u8 {
        // SeqCst: lifecycle reads join the single total order the transition
        // stores write — clients must never see SERVING after a kill's
        // DRAINING became visible to any other observer.
        self.state.load(Ordering::SeqCst)
    }

    /// Whether the shard currently accepts requests.
    pub fn is_serving(&self) -> bool {
        self.state() == STATE_SERVING
    }

    /// Operations acknowledged so far (monotone; a kill controller samples this
    /// to prove healthy shards keep serving during a victim's outage).
    pub fn completed_ops(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Ask the shard to crash. Returns `false` if it was not serving (already
    /// killed, recovering, or stopped). The actual damage is applied by the
    /// executor once the workers have unwound.
    pub fn request_kill(&self) -> bool {
        if self
            .state
            // SeqCst (both orderings): the SERVING -> DRAINING transition
            // is the linearization point of a kill; it must be totally
            // ordered against every `state()` read and rival kill request.
            .compare_exchange(STATE_SERVING, STATE_DRAINING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // SeqCst: the timestamp must be visible before the kill flag in the
        // one total order workers poll, so `last_recovery` never reads a
        // cycle whose start time is still zero.
        self.kill_at_ns.store(self.now_ns(), Ordering::SeqCst);
        // SeqCst: ordered after the timestamp store above.
        self.kill.store(true, Ordering::SeqCst);
        // Wake parked workers so idle shards detect the kill promptly.
        self.queue_cond.notify_all();
        true
    }

    /// Begin graceful shutdown: workers drain the queue and exit.
    pub fn request_stop(&self) {
        // SeqCst: stop joins the same total order as the kill/lifecycle
        // flags so a worker cannot drain past a stop it already observed.
        self.stop.store(true, Ordering::SeqCst);
        self.queue_cond.notify_all();
    }

    /// The detect / replay / total durations of the most recent completed kill
    /// cycle (kill → quiesced, quiesced → serving, kill → serving).
    pub fn last_recovery(&self) -> Option<(Duration, Duration, Duration)> {
        // SeqCst: the kill controller reads the timestamps in the same total
        // order the executor wrote them, so the monotonicity check below
        // distinguishes a half-written cycle from a corrupt one.
        let kill = self.kill_at_ns.load(Ordering::SeqCst);
        let quiesced = self.quiesced_at_ns.load(Ordering::SeqCst); // SeqCst: as above
        let ready = self.ready_at_ns.load(Ordering::SeqCst); // SeqCst: as above
        if kill == 0 || quiesced < kill || ready < quiesced {
            return None;
        }
        Some((
            Duration::from_nanos(quiesced - kill),
            Duration::from_nanos(ready - quiesced),
            Duration::from_nanos(ready - kill),
        ))
    }

    /// Try to enqueue a request (the clients' single entry point).
    pub fn try_enqueue(&self, req: Request) -> Result<(), EnqueueError> {
        if !self.is_serving() {
            return Err(EnqueueError::Down);
        }
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.queue_cap {
            return Err(EnqueueError::Full);
        }
        q.push_back(req);
        drop(q);
        self.queue_cond.notify_one();
        Ok(())
    }

    /// Worker-side dequeue with a bounded wait (so kill/stop flags are polled).
    fn pop(&self, timeout: Duration) -> Option<Request> {
        let mut q = self.queue.lock().unwrap();
        if let Some(req) = q.pop_front() {
            return Some(req);
        }
        let (mut q, _) = self.queue_cond.wait_timeout(q, timeout).unwrap();
        q.pop_front()
    }

    fn queue_len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }
}

/// Fires a genuine crash at the next simulated instruction once the shard's
/// kill flag is up. Stays armed forever — the flag decides.
#[derive(Debug)]
struct KillSwitch {
    kill: Arc<AtomicBool>,
}

impl CrashSchedule for KillSwitch {
    fn should_crash(&mut self, _step: u64) -> bool {
        self.kill.load(Ordering::Relaxed)
    }

    fn is_armed(&self) -> bool {
        true
    }
}

/// The request a worker is currently applying (volatile bookkeeping mirrored
/// by the persisted ticket; see the module docs).
#[derive(Clone, Copy, Debug)]
struct InFlight {
    ticket: u64,
    op: StructOp,
    enqueued_at: Instant,
}

/// Per-key acknowledged effects (successful inserts / successful removes).
#[derive(Clone, Copy, Debug, Default)]
struct KeyAcks {
    ins: u64,
    rem: u64,
}

/// Executor-owned per-worker state that survives incarnations (the OS process
/// outlives the simulated process, exactly like a restarting server).
#[derive(Default)]
struct WorkerSlot {
    next_ticket: u64,
    inflight: Option<InFlight>,
    acks: HashMap<u64, KeyAcks>,
    reads: u64,
    latency: LatencyHistogram,
    /// Kills that caught this worker mid-operation (unwound incarnations).
    killed_mid_op: u64,
    /// In-flight requests settled by ticket-matched resumption.
    resumed: u64,
    /// In-flight requests re-executed because the kill predated their entry
    /// boundary.
    reexecuted: u64,
}

enum ExitCause {
    Stopped,
    Killed,
}

/// Final report of one shard's life.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard index.
    pub id: usize,
    /// Acknowledged operations (including membership probes).
    pub completed: u64,
    /// Membership probes among them.
    pub reads: u64,
    /// Enqueue → ack latency across all workers.
    pub latency: LatencyHistogram,
    /// Machine incarnations (1 = never killed).
    pub incarnations: u64,
    /// Workers caught mid-operation by a kill (summed over workers).
    pub kills_mid_op: u64,
    /// In-flight requests settled by resumption after a kill.
    pub resumed_ops: u64,
    /// In-flight requests re-executed after a kill (pre-entry-boundary kill).
    pub reexecuted_ops: u64,
    /// Keys left in the structure at shutdown.
    pub final_len: usize,
    /// Oracle violations (empty = exactly-once held).
    pub violations: Vec<String>,
}

/// Settle one acknowledged request into the worker's books.
fn ack(slot: &mut WorkerSlot, shard: &ShardShared, inflight: InFlight, result: bool) {
    match inflight.op {
        StructOp::Insert(k) => {
            if result {
                slot.acks.entry(k).or_default().ins += 1;
            }
        }
        StructOp::Remove(k) => {
            if result {
                slot.acks.entry(k).or_default().rem += 1;
            }
        }
        StructOp::Contains(_) => slot.reads += 1,
        other => unreachable!("service request {other:?}"),
    }
    slot.latency.record(inflight.enqueued_at.elapsed());
    shard.completed.fetch_add(1, Ordering::Relaxed);
}

/// One worker incarnation: recover what the previous incarnation left behind,
/// signal readiness, then serve until killed or stopped.
fn worker_incarnation(
    shard: &ShardShared,
    set: &GeneralSet,
    mem: &PMem,
    pid: usize,
    slot: &mut WorkerSlot,
    first: bool,
    ready: &Barrier,
) -> ExitCause {
    let t = mem.thread(pid);
    let mut h = if first {
        set.handle(&t)
    } else {
        set.attach_handle(&t)
    };
    h.runtime_mut().set_unwind_on_crash(true);
    if !first {
        // Replay phase: settle the request the kill interrupted (if any).
        let resumption = set.resume_interrupted(h.runtime_mut());
        if let Some(inflight) = slot.inflight.take() {
            match resumption {
                Some(r) if r.ticket == inflight.ticket => {
                    debug_assert_eq!(r.op, inflight.op, "frame/ledger divergence");
                    if r.resumed {
                        slot.resumed += 1;
                    }
                    ack(slot, shard, inflight, r.result);
                }
                _ => {
                    // The kill hit before the entry boundary persisted the
                    // request: nothing reached the structure — run it fresh.
                    slot.reexecuted += 1;
                    set.set_ticket(h.runtime_mut(), inflight.ticket);
                    let result = h.apply(inflight.op) == Some(1);
                    ack(slot, shard, inflight, result);
                }
            }
        }
    }
    // Arm the kill switch only now: recovery itself must not be re-killed
    // (`request_kill` refuses a non-serving shard).
    t.set_crash_schedule(KillSwitch {
        kill: Arc::clone(&shard.kill),
    });
    ready.wait();
    let verdict = catch_crash(|| loop {
        if shard.kill.load(Ordering::Relaxed) {
            return ExitCause::Killed;
        }
        match shard.pop(Duration::from_micros(500)) {
            Some(req) => {
                slot.next_ticket += 1;
                let inflight = InFlight {
                    ticket: slot.next_ticket,
                    op: req.op,
                    enqueued_at: req.enqueued_at,
                };
                slot.inflight = Some(inflight);
                set.set_ticket(h.runtime_mut(), inflight.ticket);
                // A kill can fire at any simulated instruction in here and
                // unwind the whole incarnation; the ticket protocol above
                // guarantees the request is still settled exactly once.
                let result = h.apply(inflight.op) == Some(1);
                ack(slot, shard, inflight, result);
                slot.inflight = None;
            }
            None => {
                if shard.stop.load(Ordering::Relaxed) && shard.queue_len() == 0 {
                    return ExitCause::Stopped;
                }
            }
        }
    });
    t.disarm_crashes();
    match verdict {
        Ok(cause) => cause,
        Err(_) => {
            slot.killed_mid_op += 1;
            ExitCause::Killed
        }
    }
}

/// Run a shard to completion: incarnation loop, kill-restart cycles, graceful
/// shutdown, final exactly-once oracle. Blocks until [`ShardShared::request_stop`]
/// has been honoured; returns the shard's life report.
pub fn run_shard(shard: &ShardShared, workers: usize, drain_cap: usize) -> ShardReport {
    assert!(workers >= 1);
    let mut mem = PMem::new(MemConfig::new(workers).mode(Mode::SharedCache));
    let arena = mem.arena_handle();
    let set = {
        let t0 = mem.thread(0);
        GeneralSet::new(&t0, workers, true, BoundaryStyle::General)
    };
    // Workers mutate their own slot concurrently from sibling threads; the
    // cache-line padding keeps one worker's ticket/ack bookkeeping from
    // invalidating its neighbours' lines.
    let mut slots: Vec<CacheAligned<WorkerSlot>> =
        (0..workers).map(|_| CacheAligned::default()).collect();
    let mut incarnations = 0u64;
    let mut first = true;
    loop {
        incarnations += 1;
        let ready = Barrier::new(workers + 1);
        let killed = std::thread::scope(|s| {
            let handles: Vec<_> = slots
                .iter_mut()
                .enumerate()
                .map(|(pid, slot)| {
                    let (shard, set, mem, ready) = (&*shard, &set, &mem, &ready);
                    s.spawn(move || worker_incarnation(shard, set, mem, pid, slot, first, ready))
                })
                .collect();
            ready.wait();
            // Every worker has recovered and armed its kill switch: open for
            // business and timestamp readiness for the kill controller.
            // SeqCst: readiness timestamp first, then SERVING — in the
            // lifecycle's single total order, so a client that sees SERVING
            // finds the recovery timestamps already complete.
            shard.ready_at_ns.store(shard.now_ns(), Ordering::SeqCst);
            // SeqCst: ordered after the timestamp store above.
            shard.state.store(STATE_SERVING, Ordering::SeqCst);
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .any(|cause| matches!(cause, ExitCause::Killed))
        });
        first = false;
        if killed {
            // All workers are joined: the machine is quiescent. Apply the
            // crash damage (unflushed lines roll back), tear the machine down,
            // and bring a fresh incarnation up over the surviving arena.
            // SeqCst: quiescence timestamp, then RECOVERING — same total
            // order as the SERVING transition above.
            shard.quiesced_at_ns.store(shard.now_ns(), Ordering::SeqCst);
            // SeqCst: ordered after the timestamp store above.
            shard.state.store(STATE_RECOVERING, Ordering::SeqCst);
            mem.crash_all();
            drop(mem);
            mem = PMem::with_arena(MemConfig::new(workers).mode(Mode::SharedCache), Arc::clone(&arena));
            // SeqCst: re-arms the kill switch in the lifecycle's total
            // order, after the RECOVERING transition became visible.
            shard.kill.store(false, Ordering::SeqCst);
            continue;
        }
        // SeqCst: final lifecycle transition, same total order as the rest.
        shard.state.store(STATE_STOPPED, Ordering::SeqCst);
        break;
    }
    // ----- final oracle: acknowledged effects vs. drained structure ----------
    let mut violations = Vec::new();
    let mut balance: HashMap<u64, i64> = HashMap::new();
    for slot in &slots {
        assert!(slot.inflight.is_none(), "request still in flight after stop");
        for (&k, a) in &slot.acks {
            *balance.entry(k).or_insert(0) += a.ins as i64 - a.rem as i64;
        }
    }
    let t0 = mem.thread(0);
    let mut h = set.attach_handle(&t0);
    let drained = h.drain_up_to(drain_cap);
    if drained.truncated {
        violations.push(format!(
            "shard {}: drain truncated at {} items (corrupt structure?)",
            shard.id, drain_cap
        ));
    }
    let members: std::collections::HashSet<u64> = drained.items.iter().copied().collect();
    for (&k, &net) in &balance {
        let expect = match net {
            0 => false,
            1 => true,
            other => {
                violations.push(format!(
                    "shard {}: key {k} has impossible acknowledged balance {other} (double-applied operation)",
                    shard.id
                ));
                continue;
            }
        };
        if members.contains(&k) != expect {
            violations.push(format!(
                "shard {}: key {k} balance {net} but membership {}",
                shard.id,
                members.contains(&k)
            ));
        }
    }
    for &k in &members {
        if balance.get(&k).copied().unwrap_or(0) != 1 {
            violations.push(format!(
                "shard {}: key {k} present without a surviving acknowledged insert",
                shard.id
            ));
        }
    }
    ShardReport {
        id: shard.id,
        completed: shard.completed_ops(),
        reads: slots.iter().map(|s| s.reads).sum(),
        latency: {
            let mut all = LatencyHistogram::new();
            for s in &slots {
                all.merge(&s.latency);
            }
            all
        },
        incarnations,
        kills_mid_op: slots.iter().map(|s| s.killed_mid_op).sum(),
        resumed_ops: slots.iter().map(|s| s.resumed).sum(),
        reexecuted_ops: slots.iter().map(|s| s.reexecuted).sum(),
        final_len: drained.items.len(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::install_quiet_crash_hook;
    use std::thread;

    fn submit_all(shard: &ShardShared, ops: &[StructOp]) -> usize {
        let mut accepted = 0;
        for &op in ops {
            let req = Request {
                op,
                enqueued_at: Instant::now(),
            };
            // Bounded retry: the shard may be mid-recovery in kill tests.
            for _ in 0..20_000 {
                match shard.try_enqueue(req) {
                    Ok(()) => {
                        accepted += 1;
                        break;
                    }
                    Err(_) => thread::sleep(Duration::from_micros(50)),
                }
            }
        }
        accepted
    }

    #[test]
    fn shard_serves_and_oracle_passes_without_kills() {
        let shard = ShardShared::new(0, 1024, Instant::now());
        let report = thread::scope(|s| {
            let exec = s.spawn(|| run_shard(&shard, 2, 4096));
            while !shard.is_serving() {
                thread::sleep(Duration::from_micros(100));
            }
            let ops: Vec<StructOp> = (0..300)
                .map(|i| match i % 3 {
                    0 => StructOp::Insert(i / 3 % 20),
                    1 => StructOp::Contains(i / 3 % 20),
                    _ => StructOp::Remove(i / 3 % 20),
                })
                .collect();
            let accepted = submit_all(&shard, &ops);
            assert_eq!(accepted, ops.len());
            shard.request_stop();
            exec.join().unwrap()
        });
        assert_eq!(report.completed, 300);
        assert_eq!(report.incarnations, 1);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.latency.count() == 300);
    }

    #[test]
    fn kill_restart_cycles_preserve_exactly_once_under_traffic() {
        install_quiet_crash_hook();
        let shard = ShardShared::new(0, 1024, Instant::now());
        let report = thread::scope(|s| {
            let exec = s.spawn(|| run_shard(&shard, 2, 1 << 16));
            // Traffic: writes over a small hot keyspace to maximise the chance
            // a kill lands mid-operation.
            let traffic = s.spawn(|| {
                let mut ops = Vec::new();
                for i in 0..4000u64 {
                    let k = i % 64;
                    ops.push(if i % 2 == 0 {
                        StructOp::Insert(k)
                    } else {
                        StructOp::Remove(k)
                    });
                }
                submit_all(&shard, &ops)
            });
            // Drill: three kill cycles while traffic flows.
            for _ in 0..3 {
                while !shard.is_serving() {
                    thread::sleep(Duration::from_micros(200));
                }
                thread::sleep(Duration::from_millis(30));
                if !shard.request_kill() {
                    continue;
                }
                while !shard.is_serving() {
                    thread::sleep(Duration::from_micros(200));
                }
                let (detect, replay, total) = shard.last_recovery().expect("recovery timed");
                assert!(total >= detect && total >= replay);
            }
            let accepted = traffic.join().unwrap();
            shard.request_stop();
            let report = exec.join().unwrap();
            assert_eq!(report.completed as usize, accepted);
            report
        });
        assert!(report.incarnations >= 4, "3 kills → ≥4 incarnations, got {}", report.incarnations);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// Polls until `shard` serves again; a recovery that takes longer than
    /// `WATCHDOG` fails the test instead of hanging it.
    fn await_serving(shard: &ShardShared) {
        const WATCHDOG: Duration = Duration::from_secs(30);
        let t0 = Instant::now();
        while !shard.is_serving() {
            assert!(t0.elapsed() < WATCHDOG, "shard {} not serving after {WATCHDOG:?}", shard.id);
            thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn two_shards_survive_a_local_kill_then_a_full_system_kill() {
        install_quiet_crash_hook();
        let epoch = Instant::now();
        let shards: Vec<ShardShared> = (0..2).map(|i| ShardShared::new(i, 256, epoch)).collect();
        let traffic_on = AtomicBool::new(true);
        let (reports, accepted, local_kills, healthy_during_outage) = thread::scope(|s| {
            let execs: Vec<_> = shards.iter().map(|sh| s.spawn(move || run_shard(sh, 2, 1 << 16))).collect();
            // One client per shard keeps its queue fed over a hot keyspace
            // until told to stop, retrying while its shard is down.
            let clients: Vec<_> = shards
                .iter()
                .map(|sh| {
                    let traffic_on = &traffic_on;
                    s.spawn(move || {
                        let mut accepted = 0u64;
                        let mut i = 0u64;
                        while traffic_on.load(Ordering::Relaxed) {
                            let k = i % 64;
                            let op = match i % 3 {
                                0 => StructOp::Insert(k),
                                1 => StructOp::Contains(k),
                                _ => StructOp::Remove(k),
                            };
                            let req = Request {
                                op,
                                enqueued_at: Instant::now(),
                            };
                            match sh.try_enqueue(req) {
                                Ok(()) => {
                                    accepted += 1;
                                    i += 1;
                                }
                                Err(_) => thread::sleep(Duration::from_micros(50)),
                            }
                        }
                        accepted
                    })
                })
                .collect();
            shards.iter().for_each(await_serving);
            thread::sleep(Duration::from_millis(20));
            // Shard-local kills: shard 1 keeps serving while shard 0 recovers.
            // An outage can be shorter than a time slice on a loaded host, so
            // kill again, at most `LOCAL_KILLS` times, until one shows it.
            const LOCAL_KILLS: u64 = 4;
            let (mut local_kills, mut healthy_during_outage) = (0, 0);
            while healthy_during_outage == 0 && local_kills < LOCAL_KILLS {
                let healthy_before = shards[1].completed_ops();
                assert!(shards[0].request_kill(), "a serving shard accepts the kill");
                await_serving(&shards[0]);
                healthy_during_outage = shards[1].completed_ops() - healthy_before;
                local_kills += 1;
                thread::sleep(Duration::from_millis(20));
            }
            // Full-system kill: both shards at once.
            for sh in &shards {
                assert!(sh.request_kill(), "shard {} refused the system kill", sh.id);
            }
            shards.iter().for_each(await_serving);
            thread::sleep(Duration::from_millis(20));
            traffic_on.store(false, Ordering::Relaxed);
            let accepted: Vec<u64> = clients.into_iter().map(|c| c.join().unwrap()).collect();
            shards.iter().for_each(ShardShared::request_stop);
            let reports: Vec<ShardReport> = execs.into_iter().map(|e| e.join().unwrap()).collect();
            (reports, accepted, local_kills, healthy_during_outage)
        });
        for (report, accepted) in reports.iter().zip(&accepted) {
            assert!(report.violations.is_empty(), "shard {}: {:?}", report.id, report.violations);
            assert_eq!(report.completed, *accepted, "shard {} acknowledged every accepted request", report.id);
        }
        assert_eq!(reports[0].incarnations, local_kills + 2, "every kill of shard 0 took effect");
        assert_eq!(reports[1].incarnations, 2, "shard 1 died only in the system kill");
        assert!(healthy_during_outage > 0, "the healthy shard served nothing during {local_kills} local kills");
    }

    /// A shard nobody runs yet is recovering, not serving: it refuses
    /// requests until its first incarnation is ready.
    #[test]
    fn a_fresh_shard_is_recovering_and_refuses_requests() {
        let shard = ShardShared::new(0, 4, Instant::now());
        assert_eq!(shard.state(), STATE_RECOVERING);
        assert!(!shard.is_serving());
        let req = Request {
            op: StructOp::Insert(1),
            enqueued_at: Instant::now(),
        };
        assert_eq!(shard.try_enqueue(req), Err(EnqueueError::Down));
    }

    #[test]
    fn enqueue_refuses_when_down_or_full() {
        let shard = ShardShared::new(3, 2, Instant::now());
        let req = Request {
            op: StructOp::Insert(1),
            enqueued_at: Instant::now(),
        };
        // Initial state is Recovering: down.
        assert_eq!(shard.try_enqueue(req), Err(EnqueueError::Down));
        // SeqCst: tests drive the lifecycle through its usual total order.
        shard.state.store(STATE_SERVING, Ordering::SeqCst);
        assert_eq!(shard.try_enqueue(req), Ok(()));
        assert_eq!(shard.try_enqueue(req), Ok(()));
        assert_eq!(shard.try_enqueue(req), Err(EnqueueError::Full));
        assert!(shard.request_kill());
        assert_eq!(shard.try_enqueue(req), Err(EnqueueError::Down));
        assert!(!shard.request_kill(), "second kill while draining must refuse");
    }
}
