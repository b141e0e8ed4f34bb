//! `sweep` — the engine under the exhaustive crash-point sweeper.
//!
//! [`crate::dfck`] runs one engine over every shape: a crash-free baseline
//! learns the crash-point count, each point `k` is replayed with a scripted
//! [`CrashPlan`], the independent replays fan out across worker threads, and
//! per-replay results are merged into a report in `k` order. This module owns
//! that engine — the replay record, the report, the fan-out/striping, the
//! kill-aware crash application, the drain-bound discipline and the
//! sequential models (what a correct history looks like) — so [`crate::dfck`]
//! contributes the driver: how to run one replay of one variant
//! (`dfck::replay`, [`dfck::conc_replay`]).
//!
//! It also owns the **generalized oracle**: a Wing&Gong-style linearization
//! checker over timed operation histories ([`check_linearizable`]). The
//! single-threaded sweeps drive it with a totally ordered history
//! ([`check_sequential`] — equivalent to the original forked-model oracles,
//! with interrupted operations forking applied/not-applied branches in place),
//! and the interleaved sweeps ([`run_conc_sweep`]) drive it with real
//! concurrent timestamps taken from the deterministic
//! [`ThreadScheduler`](pmem::ThreadScheduler)'s global instruction clock, so
//! the check becomes "consistent with *some* valid linearization of the
//! concurrent history".

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use delayfree::StructOp;
use pmem::{CrashPlan, PThread, Stats, ThreadScheduler};

use crate::dfck::{self, ConcWorkload, Shape, Variant, Workload};

/// What a replay driver observed for one operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation ran to completion; the return value is carried (e.g. a
    /// dequeue's result; `None` for operations that return nothing).
    Completed(Option<u64>),
    /// A crash interrupted the operation and the variant cannot tell whether
    /// it took effect (only possible for non-detectable variants).
    Interrupted,
}

/// The counters every replay reports, single-threaded or scheduled (where
/// they are summed over the replay's processes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayCounts {
    /// Simulated crashes experienced (kills included).
    pub crashes: u64,
    /// Of those, crashes that hit the co-victim pids of a multi-victim
    /// scheduled replay (across such a sweep the total must be nonzero, or the
    /// co-victim dimension verified nothing).
    pub covictim_crashes: u64,
    /// Frame recoveries (capsule variants) or recovery calls (LogQueue).
    pub recoveries: u64,
    /// Crashes absorbed by retrying the operation-entry boundary (capsule
    /// variants only).
    pub entry_retries: u64,
    /// Crashes that landed inside recovery itself (the nested path).
    pub recovery_crashes: u64,
    /// Operations routed to the contention-adaptive fast entry point
    /// (capsule variants; zero for variants without a fast path).
    pub fast_ops: u64,
    /// Fast→slow demotions: fast-path operations that fell back to the full
    /// simulator after losing their CAS streak — nonzero exactly when the
    /// interleaving produced enough contention to trip the streak, which is
    /// the coverage proof for the demotion-boundary crash site.
    pub demotions: u64,
    /// Flush-order violations the armed [`pmem::FlushAuditor`] flagged (0
    /// where the replay runs with the auditor disarmed — see the drivers).
    pub audit_flags: u64,
    /// The auditor's human-readable reports for those flags.
    pub audit_reports: Vec<String>,
    /// Happens-before violations (data races + cross-failure races) the armed
    /// [`pmem::HbAnalyzer`] flagged.
    pub hb_flags: u64,
    /// The analyzer's human-readable reports for those flags.
    pub hb_reports: Vec<String>,
}

/// Everything one single-threaded replay produced, for the oracle and the
/// report.
#[derive(Clone, Debug, Default)]
pub struct ReplayRecord {
    /// Per-operation outcomes, in program order.
    pub outcomes: Vec<OpOutcome>,
    /// The final bounded drain of the container.
    pub drained: Vec<u64>,
    /// The drain returned more elements than the replay could possibly have
    /// left behind: the chain is corrupted — almost certainly cyclic. The
    /// bounded drain is what keeps the sweep from hanging on it.
    pub drain_overflow: bool,
    /// Crash points passed inside the swept window (meaningful for the
    /// crash-free baseline, where it defines the sweep range).
    pub crash_points: u64,
    /// Crash, recovery, fast-path and checker counters.
    pub counts: ReplayCounts,
}

/// Aggregate result of sweeping one (variant, workload, schedule-flavour)
/// combination: every crash point of a single-threaded workload
/// (`threads == None`), or (interleaving seed × victim crash point) of a
/// scheduled concurrent one.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The swept variant.
    pub variant: Variant,
    /// Workload name ("pair" / "multi" / "conc-pair" / …).
    pub workload: &'static str,
    /// Number of scheduled processes; `None` for a single-threaded sweep.
    pub threads: Option<usize>,
    /// The interleaving seeds enumerated (empty for a single-threaded sweep).
    pub seeds: Vec<u64>,
    /// Crash schedule family: the gaps injected *after* the swept crash point.
    /// Empty for the single-crash sweep; `[m]` for the nested sweep that
    /// crashes again `m` crash points into the recovery the first crash
    /// triggered; `[m, n]` for depth-2 schedules; and so on.
    pub nested: Vec<u64>,
    /// Whether crashes were full-system power failures (unflushed lines rolled
    /// back) rather than per-process faults.
    pub system: bool,
    /// The co-victim gap of a multi-victim sweep (`None` = single victim).
    pub covictim_gap: Option<u64>,
    /// Distinct scheduler fingerprints among the crash-free baselines — the
    /// number of genuinely different interleavings the seed set produced.
    pub distinct_interleavings: u64,
    /// Total (victim) crash points of the crash-free runs; all were swept.
    pub crash_points: u64,
    /// Replays executed (crash points, plus the crash-free baselines).
    pub replays: u64,
    /// Total simulated crashes injected across all replays and processes.
    pub crashes_injected: u64,
    /// Crashes that hit co-victim pids (nonzero only for multi-victim sweeps).
    pub covictim_crashes: u64,
    /// Total recoveries observed across all replays.
    pub recoveries: u64,
    /// Crashes absorbed by entry-boundary retries across all replays.
    pub entry_retries: u64,
    /// Crashes that interrupted recovery itself (proof the nested path ran).
    pub recovery_crashes: u64,
    /// Operations routed to the adaptive fast entry point across all replays
    /// (baselines included) — the coverage proof that the sweep was crashing
    /// fast-path code, not just the simulator.
    pub fast_ops: u64,
    /// Fast→slow demotions across all replays (baselines included).
    pub demotions: u64,
    /// Flush-order violations the armed auditor flagged across all replays
    /// (also folded into `violations`). Must be zero.
    pub audit_flags: u64,
    /// Happens-before violations the armed analyzer flagged across all
    /// replays (also folded into `violations`). Must be zero.
    pub hb_flags: u64,
    /// Oracle violations, as human-readable descriptions. Must be empty.
    pub violations: Vec<String>,
}

impl Report {
    fn new(
        variant: Variant,
        workload: &'static str,
        threads: Option<usize>,
        nested: &[u64],
        system: bool,
    ) -> Report {
        Report {
            variant,
            workload,
            threads,
            seeds: Vec::new(),
            nested: nested.to_vec(),
            system,
            covictim_gap: None,
            distinct_interleavings: 0,
            crash_points: 0,
            replays: 0,
            crashes_injected: 0,
            covictim_crashes: 0,
            recoveries: 0,
            entry_retries: 0,
            recovery_crashes: 0,
            fast_ops: 0,
            demotions: 0,
            audit_flags: 0,
            hb_flags: 0,
            violations: Vec::new(),
        }
    }

    /// Whether every replay satisfied the oracle.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count one replay (`tag` names it in violation messages) into the
    /// aggregates, folding its auditor and analyzer flags into `violations`.
    fn absorb(&mut self, tag: &str, r: &ReplayCounts) {
        self.replays += 1;
        self.crashes_injected += r.crashes;
        self.covictim_crashes += r.covictim_crashes;
        self.recoveries += r.recoveries;
        self.entry_retries += r.entry_retries;
        self.recovery_crashes += r.recovery_crashes;
        self.fast_ops += r.fast_ops;
        self.demotions += r.demotions;
        self.audit_flags += r.audit_flags;
        self.hb_flags += r.hb_flags;
        if r.audit_flags > 0 {
            let (n, reports) = (r.audit_flags, &r.audit_reports);
            self.violations.push(format!("{tag}: {n} flush-audit flag(s): {reports:?}"));
        }
        if r.hb_flags > 0 {
            let (n, reports) = (r.hb_flags, &r.hb_reports);
            self.violations.push(format!("{tag}: {n} happens-before flag(s): {reports:?}"));
        }
    }
}

/// Apply a caught crash to the machine from a sweep *driver* (code outside the
/// capsule runtime, e.g. the MSQ-Izraelevitz and LogQueue protocol drivers).
///
/// Kill-aware: when the crash this thread just caught was the collateral of a
/// peer's full-system crash delivered through the
/// [`ThreadScheduler`](pmem::ThreadScheduler)
/// ([`PThread::take_killed`]), the peer already applied the machine-level
/// effects (rollback + crashed flags); re-applying them would double the
/// rollback and re-kill the peers in turn. Otherwise this is the crash the
/// thread's own schedule raised: apply a full-system power failure (roll back
/// every unflushed cache line and kill the scheduled peers — sound because
/// only the baton holder executes instructions, so every peer is parked
/// before its next access) or the default per-process fault.
pub fn apply_driver_crash(t: &PThread, system: bool) {
    t.note_crash();
    if t.take_killed() {
        let _ = t.mem().take_crashed(t.pid());
        return;
    }
    if system {
        t.mem().crash_all();
        t.kill_peers();
    } else {
        t.mem().crash_thread(t.pid());
    }
    let _ = t.mem().take_crashed(t.pid());
}

/// Worker-thread count for the sweep fan-out: `available_parallelism` capped
/// at 8, never more than one per replay.
pub fn sweep_workers(replays: u64) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(8).min(replays.max(1) as usize)
}

/// Fan `run_one` out over `0..n` across `workers` OS threads (striped, since
/// the per-`k` costs are roughly uniform) and return the results sorted by
/// `k` — the merge is deterministic regardless of the worker count. Replays
/// share nothing (each builds its own machine), so plain fan-out is sound.
pub fn fan_out<R: Send>(
    n: u64,
    workers: usize,
    run_one: impl Fn(u64) -> R + Sync,
) -> Vec<(u64, R)> {
    let workers = workers.max(1);
    if workers <= 1 {
        return (0..n).map(|k| (k, run_one(k))).collect();
    }
    let mut all: Vec<(u64, R)> = std::thread::scope(|s| {
        let run_one = &run_one;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w as u64..n)
                        .step_by(workers)
                        .map(|k| (k, run_one(k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    all.sort_by_key(|&(k, _)| k);
    all
}

/// The single-threaded sweep engine: run the crash-free baseline, fan one
/// replay per crash point out over [`sweep_workers`], and assemble the
/// [`Report`] — audit flags, schedule-never-fired detection, the
/// model-consistency check, and (for detectable variants) the exactly-once
/// obligations: history identical to the crash-free run and at least one
/// recovery action per injected crash. `workers_override` pins the fan-out
/// (tests compare sequential and parallel runs); `None` ⇒ [`sweep_workers`].
pub fn run_sweep(
    variant: Variant,
    workload: &Workload,
    nested: &[u64],
    system: bool,
    workers_override: Option<usize>,
) -> Report {
    let workload_name = workload.name;
    let replay = |plan: &CrashPlan| dfck::replay(variant, workload, plan, system);
    let check = |r: &ReplayRecord| dfck::check_history(variant.shape(), workload, r);
    // Crash-free baseline: defines the sweep range and the reference history.
    let baseline = replay(&CrashPlan::new(Vec::new()));
    assert_eq!(baseline.counts.crashes, 0);
    let mut report = Report::new(variant, workload_name, None, nested, system);
    report.crash_points = baseline.crash_points;
    if let Err(e) = check(&baseline) {
        report
            .violations
            .push(format!("baseline (crash-free): {e}"));
    }
    report.absorb("baseline (crash-free)", &baseline.counts);
    // One source of truth for the scripted schedule shape: `CrashPlan::nested`
    // builds `[k, nested…]`, and `script()` is what the reports print.
    let plan_for = |k: u64| CrashPlan::nested(k, nested);
    let run_one = |k: u64| -> ReplayRecord {
        let plan = plan_for(k);
        if std::env::var_os("DF_DFCK_TRACE").is_some() {
            eprintln!(
                "dfck trace: {variant:?} {workload_name}: k={k} gaps={:?} system={system}",
                plan.script()
            );
        }
        replay(&plan)
    };
    let n = baseline.crash_points;
    let workers = workers_override
        .map(|w| w.max(1))
        .unwrap_or_else(|| sweep_workers(n));
    for (k, r) in fan_out(n, workers, run_one) {
        let gaps = plan_for(k).script().to_vec();
        report.absorb(&format!("k={k} gaps={gaps:?}"), &r.counts);
        if r.counts.crashes == 0 {
            report.violations.push(format!(
                "k={k}: the schedule never fired (swept range disagrees with the replay)"
            ));
            continue;
        }
        if let Err(e) = check(&r) {
            report.violations.push(format!("k={k} gaps={gaps:?}: {e}"));
            continue;
        }
        if variant.detectable() {
            // Detectable variants: the history must be *identical* to the
            // crash-free one — crashes must be invisible (Definition 2.2) —
            // and the crash must actually have forced a recovery, proving the
            // "re-executed but invisible" claim rather than a vacuous pass.
            if r.outcomes != baseline.outcomes || r.drained != baseline.drained {
                report.violations.push(format!(
                    "k={k} gaps={gaps:?}: history differs from the crash-free run \
                     (outcomes {:?} vs {:?}, drain {:?} vs {:?})",
                    r.outcomes, baseline.outcomes, r.drained, baseline.drained
                ));
            }
            if r.counts.recoveries + r.counts.entry_retries == 0 {
                report.violations.push(format!(
                    "k={k}: a crash was injected but no recovery action ran"
                ));
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// The generalized oracle: linearization checking over timed histories.
// ---------------------------------------------------------------------------

/// The sequential reference model the linearization checker runs against, one
/// per abstract data type (maps are checked as sets): a tiny in-memory
/// reference the checker forks at interrupted operations and memoizes over
/// (decided-set, state) pairs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Model {
    /// FIFO queue contents, head first.
    Fifo(VecDeque<u64>),
    /// LIFO stack contents, bottom first.
    Lifo(Vec<u64>),
    /// Ordered set of keys.
    Set(BTreeSet<u64>),
}

impl Model {
    /// The model of a `shape` holding `prefill` (enqueued / pushed in order,
    /// or inserted as keys).
    pub fn initial(shape: Shape, prefill: &[u64]) -> Model {
        match shape {
            Shape::Fifo => Model::Fifo(prefill.iter().copied().collect()),
            Shape::Lifo => Model::Lifo(prefill.to_vec()),
            Shape::Set | Shape::Map => Model::Set(prefill.iter().copied().collect()),
        }
    }

    /// Apply `op`, returning the model's return value (compared against the
    /// observed [`OpOutcome::Completed`] payload).
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match (self, op) {
            (Model::Fifo(q), StructOp::Push(v)) => {
                q.push_back(v);
                None
            }
            (Model::Fifo(q), StructOp::Pop) => q.pop_front(),
            (Model::Lifo(s), StructOp::Push(v)) => {
                s.push(v);
                None
            }
            (Model::Lifo(s), StructOp::Pop) => s.pop(),
            (Model::Set(s), StructOp::Insert(k)) => Some(s.insert(k) as u64),
            (Model::Set(s), StructOp::Remove(k)) => Some(s.remove(&k) as u64),
            (Model::Set(s), StructOp::Contains(k)) => Some(s.contains(&k) as u64),
            _ => unreachable!("operation does not match the variant's shape"),
        }
    }

    /// The drain the harness would observe from this state (FIFO order,
    /// top-down for stacks, ascending for sets).
    fn final_drain(&self) -> Vec<u64> {
        match self {
            Model::Fifo(q) => q.iter().copied().collect(),
            Model::Lifo(items) => items.iter().rev().copied().collect(),
            Model::Set(keys) => keys.iter().copied().collect(),
        }
    }
}

/// One operation of a (possibly concurrent) history, with the interval of
/// global instruction timestamps it occupied.
///
/// Timestamps come from the [`ThreadScheduler`](pmem::ThreadScheduler)'s
/// global clock ([`PThread::sched_step`]): `start` is a lower bound on the
/// operation's first instruction, `end` an upper bound on its linearization
/// point ([`u64::MAX`] for interrupted operations, whose effect — if any —
/// may surface arbitrarily late, e.g. through a peer's helping). Loose starts
/// and tight ends keep the checker *sound*: it may miss a real-time ordering
/// edge (accepting a history a sharper clock would reject) but never invents
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedOp {
    /// The operation.
    pub op: StructOp,
    /// What the driver observed for it.
    pub outcome: OpOutcome,
    /// Lower bound on the operation's invocation time.
    pub start: u64,
    /// Upper bound on the operation's linearization point.
    pub end: u64,
}

/// Bit-set over history indices, sized at runtime (no 64-op cap: seeded
/// workloads scale with `DF_DFCK_OPS`).
#[derive(Clone, PartialEq, Eq, Hash)]
struct DoneSet(Vec<u64>);

impl DoneSet {
    fn new(n: usize) -> DoneSet {
        DoneSet(vec![0; n.div_ceil(64)])
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    fn with(&self, i: usize) -> DoneSet {
        let mut next = self.clone();
        next.0[i / 64] |= 1 << (i % 64);
        next
    }
    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Check a timed operation history against a sequential model: succeed iff
/// *some* valid linearization of the history — an order of the operations
/// that respects real time (an operation that completed before another was
/// invoked must linearize first), with every interrupted operation either
/// applied or dropped — reproduces every completed operation's return value
/// *and* the final drained contents.
///
/// This is the forked-model oracle generalized from total orders (the
/// original sequential sweeps, via [`check_sequential`]) to the partial
/// orders of genuinely concurrent replays. Search is exhaustive
/// (Wing & Gong-style DFS) with memoization over (decided-set, model state),
/// which keeps the tiny sweep histories (a handful of ops per process) cheap.
pub fn check_linearizable(
    initial: Model,
    history: &[TimedOp],
    drained: &[u64],
) -> Result<(), String> {
    fn dfs(
        history: &[TimedOp],
        drained: &[u64],
        done: &DoneSet,
        model: &Model,
        memo: &mut HashSet<(DoneSet, Model)>,
    ) -> bool {
        if done.count() == history.len() {
            return model.final_drain() == drained;
        }
        if !memo.insert((done.clone(), model.clone())) {
            return false;
        }
        for (i, item) in history.iter().enumerate() {
            if done.get(i) {
                continue;
            }
            // Real-time order: `i` may linearize next only if no other still
            // pending operation *completed* before `i` was invoked.
            let blocked = history
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && !done.get(j) && other.end < item.start);
            if blocked {
                continue;
            }
            let next_done = done.with(i);
            match item.outcome {
                OpOutcome::Completed(ret) => {
                    let mut next = model.clone();
                    if next.apply(item.op) == ret
                        && dfs(history, drained, &next_done, &next, memo)
                    {
                        return true;
                    }
                }
                OpOutcome::Interrupted => {
                    // Fork: the interrupted operation either applied (its
                    // return value was lost with the crash) or never happened.
                    let mut applied = model.clone();
                    let _ = applied.apply(item.op);
                    if dfs(history, drained, &next_done, &applied, memo)
                        || dfs(history, drained, &next_done, model, memo)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }
    let mut memo = HashSet::new();
    if dfs(history, drained, &DoneSet::new(history.len()), &initial, &mut memo) {
        Ok(())
    } else {
        Err(format!(
            "no valid linearization of the history reproduces the observed \
             returns and final drain {drained:?} (history: {history:?})"
        ))
    }
}

/// [`check_linearizable`] over a totally ordered (single-threaded) history:
/// op `i` gets the degenerate interval `[i, i]`, which forces program order
/// and makes every interrupted operation fork applied/not-applied *in place*
/// — exactly the original sequential forked-model oracles.
pub fn check_sequential(
    initial: Model,
    ops: &[StructOp],
    outcomes: &[OpOutcome],
    drained: &[u64],
) -> Result<(), String> {
    assert_eq!(ops.len(), outcomes.len(), "one outcome per operation");
    let history: Vec<TimedOp> = ops
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(i, (&op, &outcome))| TimedOp {
            op,
            outcome,
            start: i as u64,
            end: i as u64,
        })
        .collect();
    check_linearizable(initial, &history, drained)
}

// ---------------------------------------------------------------------------
// The interleaved (schedule × crash point) sweep engine.
// ---------------------------------------------------------------------------

/// A pid-ordered turn gate the concurrent replay drivers use to serialise
/// *unscheduled* per-process setup (handle construction). Construction
/// allocates persistent memory before the scheduler is armed, and the
/// allocation layout — hence cache-line co-location, which line-granular
/// flush/rollback acts on — must be deterministic for equal seeds to
/// reproduce replays bit-for-bit.
#[derive(Default)]
pub struct TurnGate {
    /// Whose turn it is (pid 0's first).
    turn: Mutex<usize>,
    cv: Condvar,
}

impl TurnGate {
    /// Block until it is `pid`'s turn.
    pub fn wait_for(&self, pid: usize) {
        let mut g = self.turn.lock().unwrap();
        while *g != pid {
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Pass the turn to `pid + 1`.
    pub fn advance(&self, pid: usize) {
        *self.turn.lock().unwrap() = pid + 1;
        self.cv.notify_all();
    }
}

/// Per-pid crash-schedule assignment for one scheduled replay: the *primary*
/// victim carries the swept scripted plan (or none, for the crash-free
/// baseline), and any number of *co-victims* carry independent plans of their
/// own — so a single deterministic interleaving can crash two (or more) pids,
/// exercising recovery code racing against a peer's recovery.
#[derive(Clone, Debug)]
pub struct VictimPlans {
    victim: usize,
    victim_plan: Option<CrashPlan>,
    covictims: Vec<(usize, CrashPlan)>,
}

impl VictimPlans {
    /// The crash-free baseline: `victim` is recorded (its crash-point count
    /// defines the sweep range) but no schedule is installed anywhere.
    pub fn baseline(victim: usize) -> VictimPlans {
        VictimPlans {
            victim,
            victim_plan: None,
            covictims: Vec::new(),
        }
    }

    /// A single-victim replay with `plan` installed on `victim` — the shape
    /// every pre-multi-victim sweep used.
    pub fn scripted(victim: usize, plan: CrashPlan) -> VictimPlans {
        VictimPlans {
            victim,
            victim_plan: Some(plan),
            covictims: Vec::new(),
        }
    }

    /// Add a co-victim with its own independent plan. Panics if `pid` is the
    /// primary victim or already a co-victim (one schedule per pid).
    pub fn with_covictim(mut self, pid: usize, plan: CrashPlan) -> VictimPlans {
        assert_ne!(pid, self.victim, "co-victim must differ from the victim");
        assert!(
            self.covictims.iter().all(|(p, _)| *p != pid),
            "pid {pid} already has a plan"
        );
        self.covictims.push((pid, plan));
        self
    }

    /// The primary victim pid.
    pub fn victim(&self) -> usize {
        self.victim
    }

    /// The plan assigned to `pid`, if any.
    pub fn plan_for(&self, pid: usize) -> Option<&CrashPlan> {
        if pid == self.victim {
            return self.victim_plan.as_ref();
        }
        self.covictims
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, plan)| plan)
    }

    /// The co-victim pids (empty for single-victim replays).
    pub fn covictim_pids(&self) -> impl Iterator<Item = usize> + '_ {
        self.covictims.iter().map(|(p, _)| *p)
    }

    /// Largest pid with any role (for range asserts in the drivers).
    pub fn max_pid(&self) -> usize {
        self.covictim_pids().fold(self.victim, usize::max)
    }
}

/// The scheduled-window protocol every concurrent replay worker follows:
/// register with the deterministic scheduler, install the crash schedule this
/// pid is assigned (victim or co-victim), reset the stats window, run the
/// operations with global timestamps taken from [`PThread::sched_step`], then
/// capture the window's [`Stats`] and detach from the scheduler.
///
/// `start` is recorded as `sched_step() + 1`: a sound lower bound on the
/// operation's first instruction that also keeps consecutive operations of
/// one pid strictly ordered (`end < start`), so the linearization checker
/// preserves program order. `end` is the global step of the operation's last
/// instruction — an upper bound on its linearization point — or [`u64::MAX`]
/// for interrupted operations, whose effect may surface arbitrarily late.
pub fn run_scheduled_window(
    t: &PThread<'_>,
    sched: &Arc<ThreadScheduler>,
    pid: usize,
    plans: &VictimPlans,
    ops: &[StructOp],
    mut run_op: impl FnMut(StructOp) -> OpOutcome,
) -> (Vec<TimedOp>, Stats) {
    t.set_thread_scheduler(Arc::clone(sched));
    let _guard = sched.finish_guard(pid);
    if let Some(plan) = plans.plan_for(pid) {
        if plan.remaining() > 0 {
            t.set_crash_schedule(plan.clone());
        }
    }
    let _ = t.take_stats();
    let mut history = Vec::with_capacity(ops.len());
    for &op in ops {
        let start = t.sched_step() + 1;
        let outcome = run_op(op);
        let end = match outcome {
            OpOutcome::Completed(_) => t.sched_step(),
            OpOutcome::Interrupted => u64::MAX,
        };
        history.push(TimedOp {
            op,
            outcome,
            start,
            end,
        });
    }
    let window = t.stats();
    t.disarm_crashes();
    t.clear_thread_scheduler();
    (history, window)
}

/// Everything one *concurrent* replay produced: the timed per-operation
/// history across all processes, the final drain, the scheduler's trace
/// digest, and the victim/aggregate crash bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct ConcReplayRecord {
    /// Every process's operations with outcomes and global timestamps
    /// (flattened; the checker orders by timestamps, not position).
    pub history: Vec<TimedOp>,
    /// The final bounded drain of the container.
    pub drained: Vec<u64>,
    /// The drain exceeded the replay's maximum possible survivors (corrupted,
    /// almost certainly cyclic, chain).
    pub drain_overflow: bool,
    /// The scheduler's trace fingerprint
    /// ([`pmem::ThreadScheduler::fingerprint`]): equal seeds must reproduce
    /// it bit-for-bit, distinct seeds should perturb it.
    pub fingerprint: u64,
    /// Crash points the victim pid passed inside the scheduled window
    /// (defines the sweep range for its seed).
    pub victim_crash_points: u64,
    /// Simulated crashes the victim experienced (0 in a replay with a plan ⇒
    /// the schedule never fired).
    pub victim_crashes: u64,
    /// The victim's recovery actions (frame recoveries + entry retries, or
    /// LogQueue recovery passes).
    pub victim_recovery_actions: u64,
    /// Crash, recovery, fast-path and checker counters, summed over all
    /// processes. The auditor is disarmed in scheduled replays (see
    /// `dfck::conc_replay`); the analyzer stays armed — its ordering model is
    /// schedule-aware (baton handovers draw no edges).
    pub counts: ReplayCounts,
}

/// The interleaved-sweep engine: for every seed, run a crash-free scheduled
/// baseline to learn the victim's crash-point count, then fan out one replay
/// per (seed, crash point `k`) with the scripted schedule `[k, nested…]`
/// installed on the victim pid (`seed % threads`, so the victim rotates across
/// the seed set). Every replay is checked with [`check_linearizable`] against
/// the shape's [`Model`]; detectable variants additionally must complete every
/// operation — concurrent returns may legitimately differ across
/// interleavings, so exact baseline equality is *not* required — and run at
/// least one victim recovery action per injected crash.
///
/// With `covictim_gap = Some(g)`, every scripted replay additionally arms the
/// pid after the victim (`(victim + 1) % threads`) with the independent
/// single-crash plan [`CrashPlan::once`]`(g)` — two pids crash inside one
/// deterministic interleaving, so one pid's recovery races the other's. The
/// sweep fails if the co-victim schedule never fires across the whole sweep.
/// Everything else mirrors [`run_sweep`].
pub fn run_conc_sweep(
    variant: Variant,
    w: &ConcWorkload,
    seeds: &[u64],
    nested: &[u64],
    covictim_gap: Option<u64>,
    system: bool,
    workers_override: Option<usize>,
) -> Report {
    let (workload_name, threads) = (w.name, w.threads());
    let initial = || Model::initial(variant.shape(), &w.prefill);
    let replay =
        |seed: u64, plans: &VictimPlans| dfck::conc_replay(variant, w, seed, plans, system);
    assert!(
        covictim_gap.is_none() || threads >= 2,
        "multi-victim sweeps need at least two scheduled pids"
    );
    let strict = variant.detectable();
    let mut report = Report::new(variant, workload_name, Some(threads), nested, system);
    report.seeds = seeds.to_vec();
    report.covictim_gap = covictim_gap;
    // The oracle for a replay that carries no scripted victim crash (the
    // baseline and the multi-victim calibration).
    let check_unscripted = |report: &mut Report, tag: &str, r: &ConcReplayRecord| {
        if r.drain_overflow {
            report
                .violations
                .push(format!("{tag}: drain overflow — corrupted (cyclic?) chain"));
        } else if let Err(e) = check_linearizable(initial(), &r.history, &r.drained) {
            report.violations.push(format!("{tag}: {e}"));
        }
    };
    let mut fingerprints = BTreeSet::new();
    for &seed in seeds {
        let victim = (seed as usize) % threads;
        let baseline = replay(seed, &VictimPlans::baseline(victim));
        assert_eq!(baseline.counts.crashes, 0, "crash-free baseline must not crash");
        fingerprints.insert(baseline.fingerprint);
        let base_tag = format!("seed={seed} victim={victim}");
        let baseline_tag = format!("{base_tag} baseline");
        check_unscripted(&mut report, &baseline_tag, &baseline);
        report.absorb(&baseline_tag, &baseline.counts);
        let covictim = (victim + 1) % threads;
        // The victim's reachable crash-point range must be calibrated under
        // the schedule the fan-out will actually run: with a co-victim armed,
        // its early crash perturbs the victim's execution (shorter window,
        // different retry loops), so the crash-free baseline's count would
        // over- or under-shoot. Run one calibration replay arming only the
        // co-victim and sweep the victim over *that* range.
        let n = match covictim_gap {
            None => baseline.victim_crash_points,
            Some(gap) => {
                let plans = VictimPlans::baseline(victim)
                    .with_covictim(covictim, CrashPlan::once(gap));
                let cal = replay(seed, &plans);
                let cal_tag = format!("{base_tag} calibration covictim={covictim} gap={gap}");
                report.absorb(&cal_tag, &cal.counts);
                check_unscripted(&mut report, &cal_tag, &cal);
                cal.victim_crash_points
            }
        };
        if n == 0 {
            report.violations.push(format!(
                "{base_tag}: the victim passed no crash points — nothing to sweep"
            ));
            continue;
        }
        report.crash_points += n;
        let workers = workers_override
            .map(|w| w.max(1))
            .unwrap_or_else(|| sweep_workers(n));
        let plans_for = |k: u64| {
            let mut plans = VictimPlans::scripted(victim, CrashPlan::nested(k, nested));
            if let Some(gap) = covictim_gap {
                plans = plans.with_covictim(covictim, CrashPlan::once(gap));
            }
            plans
        };
        let run_one = |k: u64| -> ConcReplayRecord {
            let plans = plans_for(k);
            if std::env::var_os("DF_DFCK_TRACE").is_some() {
                eprintln!(
                    "dfck conc trace: {variant:?} {workload_name}: seed={seed} victim={victim} k={k} gaps={:?} covictim_gap={covictim_gap:?} system={system}",
                    CrashPlan::nested(k, nested).script()
                );
            }
            replay(seed, &plans)
        };
        for (k, r) in fan_out(n, workers, run_one) {
            let mut tag = format!(
                "seed={seed} victim={victim} k={k} gaps={:?}",
                CrashPlan::nested(k, nested).script()
            );
            if let Some(gap) = covictim_gap {
                tag.push_str(&format!(" covictim={covictim} covictim_gap={gap}"));
            }
            report.absorb(&tag, &r.counts);
            if r.victim_crashes == 0 {
                report.violations.push(format!(
                    "{tag}: the schedule never fired on the victim"
                ));
                continue;
            }
            if r.drain_overflow {
                report.violations.push(format!(
                    "{tag}: drain returned {} elements — corrupted (cyclic?) chain",
                    r.drained.len()
                ));
                continue;
            }
            if strict {
                if let Some(interrupted) = r
                    .history
                    .iter()
                    .find(|t| t.outcome == OpOutcome::Interrupted)
                {
                    report.violations.push(format!(
                        "{tag}: a detectable variant left an operation interrupted: \
                         {interrupted:?}"
                    ));
                    continue;
                }
            }
            if let Err(e) = check_linearizable(initial(), &r.history, &r.drained) {
                report.violations.push(format!("{tag}: {e}"));
                continue;
            }
            if strict && r.victim_recovery_actions == 0 {
                report.violations.push(format!(
                    "{tag}: a crash was injected but no recovery action ran on the victim"
                ));
            }
        }
    }
    report.distinct_interleavings = fingerprints.len() as u64;
    // Colliding fingerprints silently collapse the seed dimension's coverage:
    // two seeds that schedule identically sweep the same crash points twice
    // instead of exploring a new interleaving. Report it as a violation so
    // the sweep (and CI) fails loudly rather than over-claiming coverage.
    let unique_seeds = seeds.iter().collect::<BTreeSet<_>>().len();
    if (report.distinct_interleavings as usize) < unique_seeds {
        report.violations.push(format!(
            "seed set collapsed: {unique_seeds} distinct seeds produced only {} distinct \
             interleavings",
            report.distinct_interleavings
        ));
    }
    // A multi-victim sweep whose co-victim schedule never fired anywhere
    // silently degenerates to the single-victim sweep — fail loudly instead
    // of over-claiming coverage.
    if covictim_gap.is_some() && report.crashes_injected > 0 && report.covictim_crashes == 0 {
        report.violations.push(
            "multi-victim sweep: the co-victim schedule never fired in any replay".to_string(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    use StructOp::{Pop as Deq, Push as Enq};

    fn fifo(values: &[u64]) -> Model {
        Model::initial(Shape::Fifo, values)
    }

    fn op(o: StructOp, ret: Option<u64>, start: u64, end: u64) -> TimedOp {
        TimedOp {
            op: o,
            outcome: OpOutcome::Completed(ret),
            start,
            end,
        }
    }

    #[test]
    fn overlapping_ops_may_linearize_in_either_order() {
        // Two overlapping enqueues; the drain fixes which came first. Both
        // drains must be accepted, since the intervals overlap.
        let history = [
            op(Enq(1), None, 1, 10),
            op(Enq(2), None, 2, 9),
        ];
        check_linearizable(fifo(&[]), &history, &[1, 2]).unwrap();
        check_linearizable(fifo(&[]), &history, &[2, 1]).unwrap();
        assert!(check_linearizable(fifo(&[]), &history, &[1]).is_err());
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Enq(1) completed strictly before Enq(2) was invoked: only [1, 2]
        // linearizes.
        let history = [
            op(Enq(1), None, 1, 4),
            op(Enq(2), None, 5, 9),
        ];
        check_linearizable(fifo(&[]), &history, &[1, 2]).unwrap();
        assert!(check_linearizable(fifo(&[]), &history, &[2, 1]).is_err());
    }

    #[test]
    fn completed_returns_must_match_the_model() {
        // Dequeue from [7]: must return Some(7), leave [].
        let history = [op(Deq, Some(7), 1, 2)];
        check_linearizable(fifo(&[7]), &history, &[]).unwrap();
        let wrong = [op(Deq, Some(8), 1, 2)];
        assert!(check_linearizable(fifo(&[7]), &wrong, &[]).is_err());
    }

    #[test]
    fn interrupted_ops_fork_applied_and_not_applied() {
        let history = [TimedOp {
            op: Enq(42),
            outcome: OpOutcome::Interrupted,
            start: 1,
            end: u64::MAX,
        }];
        check_linearizable(fifo(&[7]), &history, &[7, 42]).unwrap();
        check_linearizable(fifo(&[7]), &history, &[7]).unwrap();
        assert!(check_linearizable(fifo(&[7]), &history, &[42]).is_err());
    }

    #[test]
    fn interrupted_op_can_take_effect_after_later_completed_ops() {
        // An interrupted enqueue (end = MAX) may be completed much later by a
        // helping peer: accept it linearizing after an op that started later.
        let history = [
            TimedOp {
                op: Enq(1),
                outcome: OpOutcome::Interrupted,
                start: 1,
                end: u64::MAX,
            },
            op(Enq(2), None, 10, 12),
        ];
        check_linearizable(fifo(&[]), &history, &[2, 1]).unwrap();
    }

    #[test]
    fn sequential_wrapper_forces_program_order() {
        // In the totally ordered wrapper the same two enqueues cannot be
        // reordered: [2, 1] must be rejected.
        let ops = [Enq(1), Enq(2)];
        let outcomes = [OpOutcome::Completed(None); 2];
        check_sequential(fifo(&[]), &ops, &outcomes, &[1, 2]).unwrap();
        assert!(check_sequential(fifo(&[]), &ops, &outcomes, &[2, 1]).is_err());
    }

    #[test]
    fn sequential_interrupted_ops_fork_in_place() {
        // Interrupted enqueue then completed dequeue: the dequeue's return
        // decides the fork retroactively, and inconsistent combinations fail.
        let ops = [Enq(5), Deq];
        let outcomes = [OpOutcome::Interrupted, OpOutcome::Completed(Some(5))];
        check_sequential(fifo(&[]), &ops, &outcomes, &[]).unwrap();
        let not_applied = [OpOutcome::Interrupted, OpOutcome::Completed(None)];
        check_sequential(fifo(&[]), &ops, &not_applied, &[]).unwrap();
        let impossible = [OpOutcome::Interrupted, OpOutcome::Completed(Some(6))];
        assert!(check_sequential(fifo(&[]), &ops, &impossible, &[]).is_err());
    }

    #[test]
    fn histories_longer_than_64_ops_are_supported() {
        // The DoneSet is runtime-sized; a 70-op totally ordered history must
        // check fine (DF_DFCK_OPS is user-controlled).
        let ops: Vec<StructOp> = (0..70).map(Enq).collect();
        let outcomes = vec![OpOutcome::Completed(None); 70];
        let expected: Vec<u64> = (0..70).collect();
        check_sequential(fifo(&[]), &ops, &outcomes, &expected).unwrap();
    }

    #[test]
    fn fan_out_merges_in_k_order_for_any_worker_count() {
        for workers in [1, 3, 8] {
            let out = fan_out(10, workers, |k| k * k);
            let ks: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
            assert_eq!(ks, (0..10).collect::<Vec<_>>());
            assert!(out.iter().all(|&(k, v)| v == k * k));
        }
    }
}
