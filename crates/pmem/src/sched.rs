//! Deterministic cooperative thread scheduling: the interleaving layer.
//!
//! The paper's adversary interleaves processes arbitrarily *and* crashes any of
//! them at any instruction. The crash half of that adversary has always been
//! deterministic here (the [`CrashSchedule`](crate::CrashSchedule) layer); this
//! module makes the interleaving half deterministic too, so the `dfck` sweeper
//! can enumerate (interleaving × crash point) instead of replaying one fixed
//! thread schedule per crash point.
//!
//! ## How it works
//!
//! A [`ThreadScheduler`] hands a *baton* around the participating processes in
//! round-robin order. Only the baton holder may execute simulated instructions;
//! everyone else is parked inside their next instruction's yield point, *before*
//! the memory access happens. Each turn ("slice") has an instruction budget
//! drawn deterministically from a seed — perturbing the seed perturbs the slice
//! lengths and therefore enumerates distinct interleavings, while the same seed
//! always reproduces the same interleaving bit-for-bit.
//!
//! The yield point uses **rotate-on-next-yield** semantics: when a slice's
//! budget is exhausted, the *next* instruction's yield point hands the baton
//! over and parks before the access executes; that instruction then runs at the
//! start of the process's next slice. This guarantees that between two yield
//! points exactly one process runs — driver code after a process's last granted
//! instruction (statistics snapshots, crash handling, queue recovery decisions)
//! is always exclusive with simulated execution, so
//! [`PMem::crash_all`](crate::PMem::crash_all)'s quiescence requirement holds
//! by construction even in genuinely concurrent replays.
//!
//! ## Crashes under the scheduler
//!
//! A per-process crash ([`PMem::crash_thread`](crate::PMem::crash_thread))
//! needs nothing special: the victim unwinds, recovers, and its recovery
//! instructions are scheduled like any others — so a peer's crash points *do*
//! land inside the victim's recovery window, which is exactly the state space
//! the sweep wants.
//!
//! A full-system crash must also take down the *other* processes, which are
//! parked mid-instruction. The crashing process's
//! [`PThread::apply_crash`](crate::PThread::apply_crash) kills them (after
//! [`crash_all`](crate::PMem::crash_all)); each peer's next yield point then
//! returns a kill verdict instead of running, and the peer raises a normal
//! [`CrashSignal`](crate::CrashSignal) from its own instruction stream. Kills
//! are counted, not flagged: two back-to-back system crashes deliver two kills
//! even to a process that had no chance to run in between, keeping the number
//! of observed crashes per process independent of OS timing.
//!
//! ## Cost model
//!
//! The per-instruction hook sits behind the `ARMED_SCHED` bit of
//! [`PThread`](crate::PThread)'s packed `hot_armed` byte — beside the crash
//! and happens-before bits — so a run without a scheduler pays one predictable
//! never-taken branch per instruction. That disarmed path is what `dfbench`'s
//! per-layer `pmem.*_ns` rows and the `instr_overhead` disarmed rows time.
//! Armed, every instruction takes a mutex; arm it in sweeps, not in
//! throughput runs.

use std::sync::{Arc, Condvar, Mutex};

/// Configuration for a [`ThreadScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Number of participating processes (pids `0..threads`).
    pub threads: usize,
    /// Seed for the slice-budget sequence; distinct seeds enumerate distinct
    /// interleavings, equal seeds reproduce the interleaving exactly.
    pub seed: u64,
    /// Minimum instructions per slice (default 3; clamped to at least 1).
    pub base_budget: u64,
    /// Maximum seeded extra instructions per slice (default 6): each slice runs
    /// `base_budget + (seeded value in 0..=budget_spread)` instructions.
    pub budget_spread: u64,
}

impl SchedConfig {
    /// A scheduler configuration with the default budget shape. The defaults
    /// are fixed constants (not environment-dependent), so recorded sweep
    /// results are comparable across machines.
    pub fn new(threads: usize, seed: u64) -> SchedConfig {
        SchedConfig {
            threads,
            seed,
            base_budget: 3,
            budget_spread: 6,
        }
    }
}

/// What a yield point told the calling process to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SchedAction {
    /// Execute the instruction; the payload is the global (cross-process)
    /// instruction index it was granted, used for linearization timestamps.
    Run(u64),
    /// A full-system crash landed while this process was parked: raise a
    /// [`CrashSignal`](crate::CrashSignal) instead of executing.
    Kill,
}

/// splitmix64 finalizer — the workspace's standard cheap mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct SchedState {
    registered: Vec<bool>,
    registered_count: usize,
    started: bool,
    /// The baton holder (only meaningful once `started`).
    current: usize,
    /// Instructions left in the current slice.
    remaining: u64,
    /// Index of the current slice (names its budget in the seeded sequence).
    slice_index: u64,
    /// Instructions granted so far in the current slice.
    slice_steps: u64,
    /// Total instructions granted across all processes (the global clock).
    global_step: u64,
    /// Completed slices, in order: `(pid, instructions granted)`.
    trace: Vec<(usize, u64)>,
    /// Outstanding kill deliveries per pid (counted, so coalescing cannot make
    /// the number of observed crashes timing-dependent).
    kill_pending: Vec<u32>,
    finished: Vec<bool>,
}

/// A deterministic cooperative round-robin scheduler over the processes of one
/// replay. See the [module docs](self) for the execution model.
///
/// Install on each worker's handle with
/// [`PThread::set_thread_scheduler`](crate::PThread::set_thread_scheduler);
/// workers block at their first yield point until all `threads` participants
/// have registered, then the baton starts at the lowest pid.
pub struct ThreadScheduler {
    config: SchedConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl ThreadScheduler {
    /// Build a scheduler for `config.threads` participants.
    pub fn new(config: SchedConfig) -> Arc<ThreadScheduler> {
        assert!(config.threads > 0, "a schedule needs at least one process");
        Arc::new(ThreadScheduler {
            config,
            state: Mutex::new(SchedState {
                registered: vec![false; config.threads],
                registered_count: 0,
                started: false,
                current: 0,
                remaining: 0,
                slice_index: 0,
                slice_steps: 0,
                global_step: 0,
                trace: Vec::new(),
                kill_pending: vec![0; config.threads],
                finished: vec![false; config.threads],
            }),
            cv: Condvar::new(),
        })
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> SchedConfig {
        self.config
    }

    /// The budget of slice `slice` under this scheduler's seed.
    fn slice_budget(&self, slice: u64) -> u64 {
        let r = mix64(self.config.seed ^ slice.wrapping_mul(0x517C_C1B7_2722_0A95));
        (self.config.base_budget + r % (self.config.budget_spread + 1)).max(1)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        // A worker never panics while holding the lock (kills and crashes are
        // raised after release), but be robust against poisoning anyway so one
        // buggy test cannot hang the whole suite on a secondary deadlock.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn register(&self, pid: usize) {
        let mut st = self.lock();
        assert!(
            pid < self.config.threads,
            "pid {pid} out of range for a {}-process schedule",
            self.config.threads
        );
        assert!(!st.registered[pid], "pid {pid} registered twice");
        st.registered[pid] = true;
        st.registered_count += 1;
        if st.registered_count == self.config.threads {
            st.started = true;
            st.current = (0..self.config.threads)
                .find(|&p| !st.finished[p])
                .unwrap_or(0);
            st.remaining = self.slice_budget(0);
            self.cv.notify_all();
        }
    }

    /// Flush the current slice into the trace and hand the baton to the next
    /// unfinished process (round-robin). Caller holds the lock.
    fn rotate_locked(&self, st: &mut SchedState) {
        if st.slice_steps > 0 {
            let slice = (st.current, st.slice_steps);
            st.trace.push(slice);
            st.slice_steps = 0;
        }
        st.slice_index += 1;
        st.remaining = self.slice_budget(st.slice_index);
        let n = self.config.threads;
        for off in 1..=n {
            let cand = (st.current + off) % n;
            if !st.finished[cand] {
                st.current = cand;
                break;
            }
        }
        self.cv.notify_all();
    }

    /// The per-instruction yield point (called from `PThread`'s accounting step
    /// behind the `sched_armed` fast flag). Blocks until this pid holds the
    /// baton with budget, or a kill is pending.
    pub(crate) fn yield_point(&self, pid: usize) -> SchedAction {
        let mut st = self.lock();
        loop {
            if st.kill_pending[pid] > 0 {
                st.kill_pending[pid] -= 1;
                return SchedAction::Kill;
            }
            if st.started && st.current == pid {
                if st.remaining > 0 {
                    st.remaining -= 1;
                    st.slice_steps += 1;
                    st.global_step += 1;
                    return SchedAction::Run(st.global_step);
                }
                // Budget exhausted: hand over *before* executing this
                // instruction; it runs at the start of this pid's next slice.
                self.rotate_locked(&mut st);
                if st.current == pid {
                    continue; // sole runnable process: fresh slice, run on
                }
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Mark `pid` done: it executes no further instructions and the baton skips
    /// it. Idempotent, so both an explicit call and a drop guard may run it.
    /// Harnesses should install a [`FinishGuard`] so a real panic in one worker
    /// (an assertion failure, not a simulated crash) releases its peers instead
    /// of deadlocking the replay.
    pub fn finish(&self, pid: usize) {
        let mut st = self.lock();
        if st.finished[pid] {
            return;
        }
        st.finished[pid] = true;
        if st.started && st.current == pid {
            self.rotate_locked(&mut st);
        }
        self.cv.notify_all();
    }

    /// Queue a kill for every registered, unfinished process except `pid`
    /// (called by the process applying a full-system crash, after
    /// [`PMem::crash_all`](crate::PMem::crash_all)). Each peer's next yield
    /// point consumes one kill and raises a crash instead of executing.
    pub(crate) fn kill_peers(&self, pid: usize) {
        let mut st = self.lock();
        for q in 0..self.config.threads {
            if q != pid && st.registered[q] && !st.finished[q] {
                st.kill_pending[q] += 1;
            }
        }
        self.cv.notify_all();
    }

    /// The recorded interleaving: completed slices in execution order, as
    /// `(pid, instructions granted)`. Meaningful once every participant has
    /// finished (partial slices are flushed when their process finishes).
    pub fn trace(&self) -> Vec<(usize, u64)> {
        self.lock().trace.clone()
    }

    /// A 64-bit digest of [`trace`](ThreadScheduler::trace), for cheap
    /// determinism assertions and replay labelling.
    pub fn fingerprint(&self) -> u64 {
        let st = self.lock();
        let mut fp = 0xD6E8_FEB8_6659_FD93u64 ^ (st.trace.len() as u64);
        for &(pid, steps) in &st.trace {
            fp = mix64(fp ^ pid as u64);
            fp = mix64(fp ^ steps);
        }
        fp
    }

    /// A guard that [`finish`](ThreadScheduler::finish)es `pid` when dropped —
    /// unwinding from a real panic then releases the other workers instead of
    /// deadlocking them at their yield points.
    pub fn finish_guard(self: &Arc<Self>, pid: usize) -> FinishGuard {
        FinishGuard {
            sched: Arc::clone(self),
            pid,
        }
    }
}

impl std::fmt::Debug for ThreadScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("ThreadScheduler")
            .field("threads", &self.config.threads)
            .field("seed", &self.config.seed)
            .field("started", &st.started)
            .field("current", &st.current)
            .field("global_step", &st.global_step)
            .field("slices", &st.trace.len())
            .finish()
    }
}

/// Drop guard returned by [`ThreadScheduler::finish_guard`].
pub struct FinishGuard {
    sched: Arc<ThreadScheduler>,
    pid: usize,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.sched.finish(self.pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{catch_crash, install_quiet_crash_hook};
    use crate::mem::PMem;

    /// Run `threads` workers, each issuing `per_thread` reads of its own word
    /// under a scheduler with the given seed; return (trace, fingerprint).
    fn run_reads(threads: usize, per_thread: u64, seed: u64) -> (Vec<(usize, u64)>, u64) {
        let mem = PMem::with_threads(threads);
        let words: Vec<_> = (0..threads)
            .map(|_| mem.thread(0).alloc(crate::LINE_WORDS))
            .collect();
        let sched = ThreadScheduler::new(SchedConfig::new(threads, seed));
        std::thread::scope(|s| {
            for (pid, &word) in words.iter().enumerate() {
                let mem = &mem;
                let sched = &sched;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    t.set_thread_scheduler(Arc::clone(sched));
                    let _guard = sched.finish_guard(pid);
                    for _ in 0..per_thread {
                        t.read(word);
                    }
                    t.clear_thread_scheduler();
                });
            }
        });
        (sched.trace(), sched.fingerprint())
    }

    #[test]
    fn same_seed_reproduces_the_interleaving_bit_for_bit() {
        let (trace_a, fp_a) = run_reads(3, 40, 7);
        let (trace_b, fp_b) = run_reads(3, 40, 7);
        assert_eq!(trace_a, trace_b);
        assert_eq!(fp_a, fp_b);
    }

    #[test]
    fn distinct_seeds_enumerate_distinct_interleavings() {
        let fingerprints: Vec<u64> = (0..8).map(|seed| run_reads(2, 60, seed).1).collect();
        let mut unique = fingerprints.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            fingerprints.len(),
            "seeds collide: {fingerprints:?}"
        );
    }

    #[test]
    fn trace_accounts_for_every_instruction_and_alternates_processes() {
        let (trace, _) = run_reads(2, 50, 3);
        let total: u64 = trace.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 100, "every granted instruction appears in the trace");
        assert!(trace.iter().any(|&(pid, _)| pid == 0));
        assert!(trace.iter().any(|&(pid, _)| pid == 1));
        // Round-robin over two live processes: consecutive slices alternate
        // until one side finishes (the tail is the survivor draining alone).
        let first_single_tail = trace
            .windows(2)
            .position(|w| w[0].0 == w[1].0)
            .unwrap_or(trace.len());
        for w in trace[..first_single_tail].windows(2) {
            assert_ne!(w[0].0, w[1].0, "live processes must alternate: {trace:?}");
        }
        // Slice budgets respect the configured shape (base 3, spread 6), except
        // possibly each pid's final partial slice.
        for &(_, steps) in &trace {
            assert!(steps <= 9, "slice exceeds base+spread: {trace:?}");
        }
    }

    #[test]
    fn sole_survivor_keeps_running_after_peer_finishes() {
        // Pid 1 issues far fewer instructions; pid 0 must drain alone afterwards.
        let mem = PMem::with_threads(2);
        let a = mem.thread(0).alloc(crate::LINE_WORDS);
        let sched = ThreadScheduler::new(SchedConfig::new(2, 5));
        std::thread::scope(|s| {
            for pid in 0..2 {
                let mem = &mem;
                let sched = &sched;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    t.set_thread_scheduler(Arc::clone(sched));
                    let _guard = sched.finish_guard(pid);
                    let n = if pid == 0 { 80 } else { 4 };
                    for _ in 0..n {
                        t.read(a);
                    }
                });
            }
        });
        let total: u64 = sched.trace().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 84);
    }

    #[test]
    fn kill_is_delivered_at_the_peers_next_yield_point() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(2);
        let a = mem.thread(0).alloc(crate::LINE_WORDS);
        let sched = ThreadScheduler::new(SchedConfig::new(2, 1));
        let results: Vec<(usize, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|pid| {
                    let mem = &mem;
                    let sched = &sched;
                    s.spawn(move || {
                        let t = mem.thread(pid);
                        t.set_thread_scheduler(Arc::clone(sched));
                        let _guard = sched.finish_guard(pid);
                        if pid == 0 {
                            // Run a few instructions, then broadcast a kill and
                            // keep going: the peer must crash, we must not.
                            for _ in 0..4 {
                                t.read(a);
                            }
                            t.kill_peers();
                            for _ in 0..20 {
                                t.read(a);
                            }
                            (0, false)
                        } else {
                            let crashed = catch_crash(|| {
                                for _ in 0..1_000 {
                                    t.read(a);
                                }
                            })
                            .is_err();
                            // A kill is applied as nothing further: the
                            // killing peer already applied the crash.
                            let events = mem.crash_events();
                            t.apply_crash();
                            assert_eq!(mem.crash_events(), events, "a kill must not crash again");
                            (1, crashed)
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results, vec![(0, false), (1, true)]);
    }

    #[test]
    fn kill_counts_do_not_coalesce() {
        // Two back-to-back kills must be delivered as two crashes even though
        // the victim had no chance to run in between.
        install_quiet_crash_hook();
        let mem = PMem::with_threads(2);
        let a = mem.thread(0).alloc(crate::LINE_WORDS);
        let sched = ThreadScheduler::new(SchedConfig::new(2, 2));
        let victim_crashes: u32 = std::thread::scope(|s| {
            let mem = &mem;
            let sched_ref = &sched;
            let killer = s.spawn(move || {
                let t = mem.thread(0);
                t.set_thread_scheduler(Arc::clone(sched_ref));
                let _guard = sched_ref.finish_guard(0);
                for _ in 0..3 {
                    t.read(a);
                }
                t.kill_peers();
                t.kill_peers();
                for _ in 0..10 {
                    t.read(a);
                }
            });
            let victim = s.spawn(move || {
                let t = mem.thread(1);
                t.set_thread_scheduler(Arc::clone(sched_ref));
                let _guard = sched_ref.finish_guard(1);
                let mut crashes = 0;
                let mut issued = 0u64;
                while issued < 40 {
                    match catch_crash(|| {
                        for _ in issued..40 {
                            t.read(a);
                        }
                    }) {
                        Ok(()) => issued = 40,
                        Err(_) => {
                            let events = mem.crash_events();
                            t.apply_crash();
                            assert_eq!(mem.crash_events(), events, "a kill must not crash again");
                            crashes += 1;
                            issued = t.step_count().min(40);
                        }
                    }
                }
                crashes
            });
            killer.join().unwrap();
            victim.join().unwrap()
        });
        assert_eq!(victim_crashes, 2);
        drop(sched);
    }

    #[test]
    fn single_process_schedule_degenerates_to_plain_execution() {
        let (trace, _) = run_reads(1, 25, 9);
        let total: u64 = trace.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 25);
        assert!(trace.iter().all(|&(pid, _)| pid == 0));
    }
}
