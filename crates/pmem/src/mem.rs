//! The simulated machine: [`PMem`] (the persistent memory plus per-process system
//! state) and [`PThread`] (a process's handle through which every simulated
//! instruction is issued).
//!
//! All shared-memory instructions of the paper's model — `Read`, `Write`, `CAS` —
//! plus the persistence instructions of the shared-cache variant — `flush`
//! (`clflushopt`) and `fence` (`sfence`) — are methods on [`PThread`]. Each call
//! counts towards the thread's [`Stats`] and passes a crash point, so the same code
//! path serves throughput benchmarks (crash policy [`CrashPolicy::Never`]) and
//! crash-torture tests (probabilistic or targeted policies).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::addr::PAddr;
use crate::align::CacheAligned;
use crate::arena::{Arena, Word, SEGMENT_WORDS};
use crate::crash::{raise_crash, ArmedPolicy, CrashPolicy, CrashSchedule};
use crate::hb::HbAnalyzer;
use crate::mode::Mode;
use crate::sched::{SchedAction, ThreadScheduler};
use crate::stats::{StatCells, Stats};
use crate::LINE_WORDS;

/// Configuration for a simulated machine.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// Number of processes (threads) the machine supports.
    pub threads: usize,
    /// Cache model (private-cache PPM model or shared-cache model).
    pub mode: Mode,
    /// Crash flavour of [`PThread::apply_crash`]: per-process (`false`, the
    /// default — the PPM model of §2.1) or full-system (unflushed lines roll back).
    pub system_crashes: bool,
}

impl MemConfig {
    /// A machine with `threads` processes using the default (shared-cache) model.
    pub fn new(threads: usize) -> MemConfig {
        MemConfig {
            threads,
            mode: Mode::default(),
            system_crashes: false,
        }
    }

    /// Select the cache model.
    pub fn mode(mut self, mode: Mode) -> MemConfig {
        self.mode = mode;
        self
    }

    /// Select the crash flavour ([`system_crashes`](MemConfig::system_crashes)).
    pub fn system_crashes(mut self, enabled: bool) -> MemConfig {
        self.system_crashes = enabled;
        self
    }
}

/// Per-thread options controlling how instructions are issued.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadOptions {
    /// Apply the Izraelevitz et al. construction automatically: flush the accessed
    /// cache line after *every* shared-memory access (and fence after updates).
    /// This is how Figure 5's variants obtain durable linearizability without any
    /// algorithm-specific reasoning (§9, §10).
    pub izraelevitz: bool,
}

/// System-area word (inside the arena's reserved first line) durably holding
/// the raw base address of the per-process restart-pointer array. Written at
/// machine construction; read by [`PMem::with_arena`] so a machine re-attached
/// over a surviving medium finds the same restart words.
const SYS_RESTART_BASE: PAddr = PAddr(1);
/// System-area word durably holding the process count the medium was laid out
/// for (guards [`PMem::with_arena`] against re-attaching with a different
/// process count, which would mis-address the restart array).
const SYS_THREADS: PAddr = PAddr(2);

/// The simulated persistent machine: word arena, per-process crashed flags and
/// restart pointers, and the crash counter.
///
/// The arena — the persistent *medium* — is reference-counted and detachable
/// from the machine — the *process*: [`arena_handle`](PMem::arena_handle)
/// shares it, [`with_arena`](PMem::with_arena) boots a fresh machine over a
/// surviving medium (a process restart after a crash), and
/// [`swap_arena`](PMem::swap_arena) redirects a live machine to a different
/// medium. Multiple machines over multiple arenas coexist and recover
/// independently — the sharded-service scenario.
pub struct PMem {
    /// The current medium. Behind a lock only for [`swap_arena`](PMem::swap_arena);
    /// the instruction hot path never takes it (per-thread segment caches keyed
    /// by arena identity absorb nearly every resolution). On a cache line of its
    /// own: every segment-cache miss and every allocation takes its read lock,
    /// an atomic write to the lock word, while the fields beside it
    /// (`arena_id` above all) are read by every instruction — sharing a line
    /// with them cost two-client
    /// workloads up to a quarter of their throughput, depending only on where
    /// the machine happened to sit in memory.
    arena: CacheAligned<RwLock<Arc<Arena>>>,
    /// Mirror of the current arena's identity, so the per-instruction segment
    /// cache check is one relaxed load instead of a lock acquisition.
    arena_id: AtomicU64,
    /// Every arena this machine ever used (swapped-out media). Retained for the
    /// machine's lifetime so `&[Word]` slices handed to thread handles before a
    /// swap stay valid — see the safety argument on `PThread::segment_at_slow`.
    retired: Mutex<Vec<Arc<Arena>>>,
    mode: Mode,
    threads: usize,
    system_crashes: bool,
    crashed: Vec<AtomicBool>,
    restart_base: PAddr,
    crash_events: AtomicU64,
    /// The happens-before analyzer (`DF_HB`): vector-clock data-race and
    /// persist-order checking over the instruction stream, disarmed by default.
    hb: HbAnalyzer,
}

impl PMem {
    /// Build a machine over a fresh arena.
    pub fn new(config: MemConfig) -> PMem {
        assert!(config.threads > 0, "a machine needs at least one process");
        let arena = Arena::new(crate::LINE_WORDS);
        // One persistent restart-pointer word per process, each on its own line so
        // that processes never contend on the same line for their private system
        // state (capsule boundaries are local operations — Theorem 5.1).
        let restart_base = arena.alloc(config.threads as u64 * crate::LINE_WORDS);
        // Make the medium self-describing: a later machine incarnation attaching
        // to this arena (`with_arena`) rediscovers the restart array from the
        // reserved system line instead of trusting the caller to recompute it.
        arena.word(SYS_RESTART_BASE).store(restart_base.to_raw());
        arena.word(SYS_THREADS).store(config.threads as u64);
        PMem::assemble(config, Arc::new(arena), restart_base)
    }

    /// Boot a machine over a surviving medium — the process-restart half of a
    /// crash-recovery cycle. The arena must have been initialised by a previous
    /// [`PMem::new`] with the same process count; the restart-pointer array is
    /// rediscovered from the medium's system area, so capsule runtimes can
    /// resume from their restart pointers exactly where the dead incarnation
    /// left them.
    pub fn with_arena(config: MemConfig, arena: Arc<Arena>) -> PMem {
        assert!(config.threads > 0, "a machine needs at least one process");
        let stored_threads = arena.word(SYS_THREADS).load();
        assert_eq!(
            stored_threads, config.threads as u64,
            "arena was laid out for {stored_threads} processes, machine wants {}",
            config.threads
        );
        let restart_base = PAddr::from_raw(arena.word(SYS_RESTART_BASE).load());
        assert!(!restart_base.is_null(), "arena has no restart area (not initialised by PMem::new)");
        PMem::assemble(config, arena, restart_base)
    }

    fn assemble(config: MemConfig, arena: Arc<Arena>, restart_base: PAddr) -> PMem {
        let mem = PMem {
            arena_id: AtomicU64::new(arena.id()),
            arena: CacheAligned::new(RwLock::new(arena)),
            retired: Mutex::new(Vec::new()),
            mode: config.mode,
            threads: config.threads,
            system_crashes: config.system_crashes,
            crashed: (0..config.threads).map(|_| AtomicBool::new(false)).collect(),
            restart_base,
            crash_events: AtomicU64::new(0),
            hb: HbAnalyzer::new(),
        };
        // `DF_HB=1` arms the happens-before analyzer on every machine the
        // process creates — the switch behind the CI hb-armed tier-1 run.
        // Shared-cache only: the private-cache model has no flush/fence
        // ordering, and its per-process crashes never roll memory back.
        if config.mode == Mode::SharedCache {
            if let Some(v) = std::env::var_os("DF_HB") {
                if v != "0" && !v.is_empty() {
                    mem.hb.arm();
                }
            }
        }
        mem.arena().persist_all();
        mem
    }

    /// Convenience constructor: `threads` processes, shared-cache model.
    pub fn with_threads(threads: usize) -> PMem {
        PMem::new(MemConfig::new(threads))
    }

    /// A shared handle to the current medium. Hold it across the machine's
    /// death to re-attach with [`with_arena`](PMem::with_arena) — the
    /// shard-restart idiom of the service harness.
    pub fn arena_handle(&self) -> Arc<Arena> {
        self.arena.read().clone()
    }

    /// Redirect this machine to a different medium, returning the one it was
    /// using. The old arena is additionally retained by the machine (slices
    /// cached by thread handles must outlive the swap); handles notice the
    /// identity change at their next access and re-resolve against the new
    /// arena.
    ///
    /// Quiescence contract as for [`crash_all`](PMem::crash_all): no thread may
    /// be executing simulated instructions concurrently with the swap.
    pub fn swap_arena(&self, arena: Arc<Arena>) -> Arc<Arena> {
        let mut cur = self.arena.write();
        let old = std::mem::replace(&mut *cur, arena);
        self.retired.lock().push(old.clone());
        // SeqCst: the id must be globally ordered after the arena swap above
        // so analyzer hooks never key state under the old arena's id.
        self.arena_id.store(cur.id(), Ordering::SeqCst);
        old
    }

    /// The cache model of this machine.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of processes.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Obtain the instruction handle for process `pid` with default options.
    pub fn thread(&self, pid: usize) -> PThread<'_> {
        self.thread_with(pid, ThreadOptions::default())
    }

    /// Obtain the instruction handle for process `pid` with explicit options.
    pub fn thread_with(&self, pid: usize, opts: ThreadOptions) -> PThread<'_> {
        assert!(pid < self.threads, "pid {pid} out of range (machine has {} processes)", self.threads);
        let hb_armed = self.mode == Mode::SharedCache && self.hb.is_armed();
        if hb_armed {
            // Handle creation is a happens-before edge: everything every pid
            // executed so far precedes what this handle does next (handles are
            // `!Send`, so the handle's thread really is downstream of a host
            // synchronization edge from wherever that history was produced).
            self.hb.locked().on_thread(pid);
        }
        PThread {
            mem: self,
            pid,
            mode: self.mode,
            opts,
            stats: CacheAligned::new(StatCells::default()),
            schedule: RefCell::new(Box::new(ArmedPolicy::arm(CrashPolicy::Never, pid))),
            hot_armed: Cell::new(if hb_armed { PThread::ARMED_HB } else { 0 }),
            scheduler: RefCell::new(None),
            killed: Cell::new(false),
            last_sched_step: Cell::new(0),
            step: Cell::new(0),
            step_base: Cell::new(0),
            in_recovery: Cell::new(false),
            seg_cache: Cell::new(None),
            solo: self.threads == 1,
            pending_lines: Default::default(),
            pending_len: Cell::new(0),
        }
    }

    /// The machine's happens-before analyzer ([`HbAnalyzer`]). Arm it *before*
    /// creating thread handles (or call [`PThread::refresh_hb`] on existing
    /// ones) so the per-thread packed fast flag picks the armed state up.
    pub fn hb(&self) -> &HbAnalyzer {
        &self.hb
    }

    /// The persistent word holding process `pid`'s restart pointer (§2.1). The
    /// capsule runtime stores the address of the active persistent stack frame here.
    pub fn restart_word(&self, pid: usize) -> PAddr {
        assert!(pid < self.threads);
        self.restart_base.offset(pid as u64 * crate::LINE_WORDS)
    }

    /// Simulate a full-system crash (shared-cache model): every un-flushed cache
    /// line reverts to its durable contents and every process's crashed flag is set.
    ///
    /// The caller must ensure quiescence — no thread may be executing simulated
    /// instructions concurrently with the rollback (in the experiments this is
    /// guaranteed because worker threads have either finished or been unwound by a
    /// [`CrashSignal`](crate::CrashSignal) before the harness calls this).
    pub fn crash_all(&self) {
        if self.mode == Mode::SharedCache {
            // SeqCst: pairs with the `swap_arena` store — the crash must be
            // attributed to the arena every quiesced thread last wrote.
            let arena_id = self.arena_id.load(Ordering::SeqCst);
            if self.hb.is_armed() {
                // The crash is a happens-before barrier (recovery is ordered
                // after everything pre-crash), and exposures whose publisher
                // may have persisted become cross-failure hazards: their words
                // are flagged at the first post-crash read.
                self.hb.locked().note_system_crash(arena_id);
            }
            self.arena().rollback_all();
        }
        for flag in &self.crashed {
            // SeqCst: the crashed flags and the event counter below form one
            // total order with the rollback — `take_crashed` on any thread
            // must not observe the count without its flag.
            flag.store(true, Ordering::SeqCst);
        }
        // SeqCst: see the flag stores above.
        self.crash_events.fetch_add(1, Ordering::SeqCst);
    }

    /// Simulate an independent crash of a single process (private-cache model):
    /// its volatile state is gone (the thread was unwound), persistent memory is
    /// untouched, and its crashed flag is set so `crashed()` reports the fault.
    pub fn crash_thread(&self, pid: usize) {
        assert!(pid < self.threads);
        // SeqCst: as in `crash_all` — flag and counter stay in one total
        // order so observers cannot see the event without the flag.
        self.crashed[pid].store(true, Ordering::SeqCst);
        // SeqCst: see the flag store above.
        self.crash_events.fetch_add(1, Ordering::SeqCst);
    }

    /// The `crashed()` system call of §2.1: returns whether process `pid` has
    /// crashed since the last call, and resets the flag.
    pub fn take_crashed(&self, pid: usize) -> bool {
        // SeqCst: the crashed() syscall of the model — consuming the flag is
        // ordered against the injecting store so a crash is seen exactly once.
        self.crashed[pid].swap(false, Ordering::SeqCst)
    }

    /// Peek at the crashed flag without resetting it.
    pub fn peek_crashed(&self, pid: usize) -> bool {
        // SeqCst: same total order as `take_crashed`, minus the reset.
        self.crashed[pid].load(Ordering::SeqCst)
    }

    /// Total number of crash events (system-wide or per-process) injected so far.
    pub fn crash_events(&self) -> u64 {
        // SeqCst: reads the injection sites' total order (see `crash_all`).
        self.crash_events.load(Ordering::SeqCst)
    }

    /// Number of persistent words allocated so far.
    pub fn allocated_words(&self) -> u64 {
        self.arena().allocated_words()
    }

    /// Read the *durable* copy of a word — what would survive a crash right now.
    /// Only used by tests and assertions about durability; algorithms must go
    /// through [`PThread::read`].
    pub fn durable_read(&self, addr: PAddr) -> u64 {
        self.arena().word(addr).durable()
    }

    /// Read the cached copy of a word without a thread handle (test helper; not an
    /// instruction of the model and not counted in any statistics).
    pub fn peek(&self, addr: PAddr) -> u64 {
        self.arena().word(addr).load()
    }

    /// Mark everything currently in memory as durable. Experiments call this after
    /// building an initial state (e.g. pre-filling a queue) so that subsequent
    /// crashes exercise only the algorithm under test.
    pub fn persist_everything(&self) {
        self.arena().persist_all();
        // SeqCst: pairs with the `swap_arena` store, as in `crash_all`.
        let arena_id = self.arena_id.load(Ordering::SeqCst);
        // Everything is durable: no line is dirty (or exposed) any more.
        self.hb.locked().note_persist_all(arena_id);
    }

    pub(crate) fn arena(&self) -> Arc<Arena> {
        self.arena.read().clone()
    }
}

impl std::fmt::Debug for PMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PMem")
            .field("mode", &self.mode)
            .field("threads", &self.threads)
            .field("allocated_words", &self.allocated_words())
            .field("crash_events", &self.crash_events())
            .finish()
    }
}

/// Capacity of the per-thread duplicate-flush window (distinct cache lines
/// tracked between two fences). The durable code paths in this workspace touch
/// at most a handful of lines per fence window (a capsule frame line, an
/// announcement line, a node line), so a small fixed window counts virtually
/// every duplicate without a hash set on the hot path.
const WINDOW_LINES: usize = 8;

/// A process's handle onto the machine. One per OS thread; not `Sync`.
///
/// Every method that touches persistent memory is an *instruction* in the sense of
/// the paper: it is counted in [`Stats`] and passes a crash point governed by the
/// thread's [`CrashPolicy`].
///
/// The handle is the simulator's hottest layer, so its per-instruction state is
/// all plain [`Cell`]s: counting is a branchless load/add/store per counter, the
/// crash point is a single test of the pre-computed `hot_armed` byte (zero for
/// every throughput run), and the last-touched arena segment is cached so
/// consecutive accesses skip the segment-table lookup entirely.
pub struct PThread<'m> {
    mem: &'m PMem,
    pid: usize,
    /// Copy of the machine's cache model, so the store path does not chase the
    /// `mem` pointer just to branch on it.
    mode: Mode,
    opts: ThreadOptions,
    /// Live per-instruction counters, padded to a full host cache line
    /// ([`CacheAligned`]) so handles that end up adjacent in one allocation
    /// (a harness `Vec`, scoped-thread captures) never false-share the
    /// hottest cells in the simulator.
    stats: CacheAligned<StatCells>,
    /// Installed crash schedule. Only consulted when the `ARMED_CRASH` bit of
    /// `hot_armed` is set, so both the `RefCell` borrow bookkeeping and the
    /// dynamic dispatch are off the throughput path entirely.
    schedule: RefCell<Box<dyn CrashSchedule>>,
    /// Pre-computed per-instruction fast flags, packed into one byte so the
    /// hot path ([`bump`](PThread::bump)) stays a single load + zero test no
    /// matter how many hooks exist. `ARMED_CRASH` is maintained by
    /// [`set_crash_schedule`](PThread::set_crash_schedule) and cleared when a
    /// schedule reports itself disarmed after a consultation; `ARMED_SCHED`
    /// mirrors whether a [`ThreadScheduler`] is installed.
    hot_armed: Cell<u8>,
    /// The deterministic interleaving scheduler, when one is installed. Only
    /// consulted behind the `ARMED_SCHED` fast bit, so replays without a
    /// scheduler (every throughput run) never touch it.
    scheduler: RefCell<Option<Arc<ThreadScheduler>>>,
    /// Set when the scheduler delivered a kill (a peer's full-system crash) at
    /// one of this thread's yield points; consumed by [`apply_crash`](PThread::apply_crash)
    /// so collateral kills are told apart from scheduled crashes.
    killed: Cell<bool>,
    /// Global (cross-process) index of the last instruction the scheduler
    /// granted this thread — the logical clock concurrent-history oracles use
    /// for linearization timestamps. Zero without a scheduler.
    last_sched_step: Cell<u64>,
    step: Cell<u64>,
    /// Value of `step` at the last [`take_stats`](PThread::take_stats), so the
    /// `crash_points` field of a snapshot is windowed like every other counter
    /// while the step counter itself stays monotone (absolute [`CrashPolicy::AtStep`]
    /// schedules depend on that).
    step_base: Cell<u64>,
    in_recovery: Cell<bool>,
    /// Per-thread cache of the last resolved arena segment, keyed by
    /// `(arena identity, segment index)`. The identity key makes the cache
    /// swap-safe: after [`PMem::swap_arena`] the machine's mirrored identity no
    /// longer matches and the next access re-resolves against the new arena.
    /// The borrow stays valid for the handle's lifetime because segments never
    /// move once created (boxed slices behind `OnceLock`s) and the machine
    /// retains every arena it ever used.
    seg_cache: Cell<Option<(u64, usize, &'m [Word])>>,
    /// The machine has exactly one process, so no second flusher can race this
    /// handle's write-backs and `flush` keeps the relaxed copy
    /// ([`Word::persist_now`]) instead of the verified one
    /// ([`Word::write_back`]). Derived from [`MemConfig`]'s thread count.
    solo: bool,
    /// Line bases this thread has flushed since its last fence — the window
    /// [`Stats::duplicate_flushes`] is counted against. Bounded: once full,
    /// further lines simply are not tracked. Entries are dropped when this
    /// thread re-dirties the line (write / successful CAS / fetch-add), and the
    /// whole set empties at the fence.
    pending_lines: [Cell<u64>; WINDOW_LINES],
    /// Number of live entries in `pending_lines`.
    pending_len: Cell<usize>,
}

impl<'m> PThread<'m> {
    /// `hot_armed` bit: the installed crash schedule can still fire.
    const ARMED_CRASH: u8 = 1;
    /// `hot_armed` bit: a [`ThreadScheduler`] is installed.
    const ARMED_SCHED: u8 = 2;
    /// `hot_armed` bit: the machine's [`HbAnalyzer`] is armed for this handle.
    /// Unlike the other two bits this one guards the instruction *bodies*
    /// (each access runs under the analyzer lock), not the `bump` step.
    const ARMED_HB: u8 = 4;

    /// Set or clear one `hot_armed` bit.
    #[inline]
    fn set_hot(&self, bit: u8, on: bool) {
        let cur = self.hot_armed.get();
        self.hot_armed.set(if on { cur | bit } else { cur & !bit });
    }

    /// The process id of this handle.
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The machine this handle belongs to.
    #[inline]
    pub fn mem(&self) -> &'m PMem {
        self.mem
    }

    /// The options this handle was created with.
    pub fn options(&self) -> ThreadOptions {
        self.opts
    }

    /// Install a crash policy. Replaces (and re-arms) any previous schedule. A
    /// [`CrashPolicy::Random`] policy is armed with a pid-derived RNG stream, so
    /// installing the same policy on every thread of a torture test yields
    /// independent crash sequences.
    pub fn set_crash_policy(&self, policy: CrashPolicy) {
        self.set_crash_schedule(ArmedPolicy::arm(policy, self.pid));
    }

    /// Install an arbitrary [`CrashSchedule`] (e.g. a scripted
    /// [`CrashPlan`](crate::CrashPlan)). Replaces any previous schedule; the
    /// pre-computed fast flag is refreshed so a disarmed schedule keeps the
    /// per-instruction crash point branch-free.
    pub fn set_crash_schedule(&self, schedule: impl CrashSchedule + 'static) {
        self.set_hot(Self::ARMED_CRASH, schedule.is_armed());
        *self.schedule.borrow_mut() = Box::new(schedule);
    }

    /// Disable crash injection (equivalent to installing [`CrashPolicy::Never`]).
    pub fn disarm_crashes(&self) {
        self.set_crash_policy(CrashPolicy::Never);
    }

    /// Re-mirror the machine's [`HbAnalyzer`] armed state into this handle's
    /// packed fast-flag byte (for handles created before the analyzer was
    /// armed/disarmed). Arming re-draws the handle-creation edge: everything
    /// executed so far happens-before this handle's next instruction.
    pub fn refresh_hb(&self) {
        let on = self.mode == Mode::SharedCache && self.mem.hb.is_armed();
        if on {
            self.mem.hb.locked().on_thread(self.pid);
        }
        self.set_hot(Self::ARMED_HB, on);
    }

    /// Snapshot of this thread's statistics. The `crash_points` field is sourced
    /// from the step counter: every counted instruction plus every explicit
    /// [`crash_point`](PThread::crash_point) call passed one crash point.
    pub fn stats(&self) -> Stats {
        let mut snap = self.stats.snapshot();
        snap.crash_points = self.step.get() - self.step_base.get();
        snap
    }

    /// Snapshot and reset this thread's statistics (including the `crash_points`
    /// window; the underlying step counter stays monotone so absolute
    /// [`CrashPolicy::AtStep`] schedules are unaffected).
    pub fn take_stats(&self) -> Stats {
        let mut snap = self.stats.take();
        let step = self.step.get();
        snap.crash_points = step - self.step_base.get();
        self.step_base.set(step);
        snap
    }

    /// Total crash points this thread has passed over its lifetime (the step
    /// counter): one per counted instruction plus one per explicit
    /// [`crash_point`](PThread::crash_point) call. The exhaustive `dfck` sweeper
    /// enumerates exactly this range.
    pub fn crash_points(&self) -> u64 {
        self.step.get()
    }

    /// Apply a crash this thread caught — the one crash path of every driver
    /// that catches one. Counts it in [`Stats`]; a *kill* (a peer's
    /// full-system crash delivered at a [`ThreadScheduler`] yield point)
    /// applies nothing further, since the peer already did. Otherwise the
    /// machine's flavour ([`MemConfig::system_crashes`]): [`PMem::crash_all`]
    /// and a kill of every scheduled peer (parked before its next access, so
    /// the rollback is quiescent), or [`PMem::crash_thread`]. The crashed flag
    /// is left for [`take_crashed`](PThread::take_crashed).
    pub fn apply_crash(&self) {
        StatCells::add(&self.stats.crashes, 1);
        // A crash ends the fence window: recovery counts duplicates afresh.
        self.pending_len.set(0);
        if self.killed.replace(false) {
            return;
        }
        if self.mem.system_crashes {
            self.mem.crash_all();
            self.kill_peers();
        } else {
            self.mem.crash_thread(self.pid);
        }
    }

    /// Begin counting instructions as *recovery* steps (for recovery-delay
    /// measurements). Recovery steps are counted in addition to their normal
    /// category.
    pub fn begin_recovery(&self) {
        self.in_recovery.set(true);
    }

    /// Stop counting instructions as recovery steps.
    pub fn end_recovery(&self) {
        self.in_recovery.set(false);
    }

    /// Whether the thread is currently inside a recovery section.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery.get()
    }

    /// The per-instruction accounting step: one counter increment, the optional
    /// recovery tally, the step counter, and the crash point. With the default
    /// [`CrashPolicy::Never`] and no scheduler (every throughput run) this is
    /// branch-plus-increment only — the armed-policy and scheduler machinery
    /// is behind the single pre-computed `hot_armed` byte.
    #[inline]
    fn bump(&self, counter: &Cell<u64>) {
        StatCells::add(counter, 1);
        if self.in_recovery.get() {
            StatCells::add(&self.stats.recovery_steps, 1);
        }
        let step = self.step.get() + 1;
        self.step.set(step);
        let armed = self.hot_armed.get();
        if armed != 0 {
            self.armed_hooks(armed, step);
        }
    }

    /// Slow path of the per-instruction hooks, dispatched off the single
    /// `hot_armed` test. Scheduler first, crash consult second: the crash
    /// (and any rollback / kill broadcast it triggers) then fires while this
    /// thread holds the baton, i.e. while every peer is parked before its
    /// next access.
    #[cold]
    fn armed_hooks(&self, armed: u8, step: u64) {
        if armed & Self::ARMED_SCHED != 0 {
            self.sched_point();
        }
        if armed & Self::ARMED_CRASH != 0 {
            self.consult_policy(step);
        }
    }

    /// Slow path of a crash point: consult the installed schedule, raise the crash
    /// if it fires, and drop the fast flag once the schedule has spent itself.
    #[cold]
    fn consult_policy(&self, step: u64) {
        let mut schedule = self.schedule.borrow_mut();
        if schedule.should_crash(step) {
            // Refresh the fast flag *before* unwinding so that a spent one-shot
            // schedule stops costing the slow path once the crash is caught, while
            // a multi-crash CrashPlan stays armed for its next script element.
            self.set_hot(Self::ARMED_CRASH, schedule.is_armed());
            drop(schedule);
            raise_crash(self.pid, step);
        }
        if !schedule.is_armed() {
            drop(schedule);
            self.set_hot(Self::ARMED_CRASH, false);
        }
    }

    /// An explicit crash point between instructions (the model allows a crash at
    /// any moment, not only during memory accesses).
    #[inline]
    pub fn crash_point(&self) {
        let step = self.step.get() + 1;
        self.step.set(step);
        let armed = self.hot_armed.get();
        if armed != 0 {
            self.armed_hooks(armed, step);
        }
    }

    /// Slow path of the scheduler hook: block until the installed
    /// [`ThreadScheduler`] grants this instruction, or raise a crash if a
    /// peer's full-system crash killed this thread while it was parked.
    #[cold]
    fn sched_point(&self) {
        let sched = self.scheduler.borrow().clone();
        let Some(sched) = sched else { return };
        match sched.yield_point(self.pid) {
            SchedAction::Run(global) => self.last_sched_step.set(global),
            SchedAction::Kill => {
                self.killed.set(true);
                raise_crash(self.pid, self.step.get());
            }
        }
    }

    // ----- deterministic interleaving (behind the `ARMED_SCHED` fast bit) ----

    /// Install a [`ThreadScheduler`]: registers this thread as a participant
    /// and routes every subsequent instruction through a scheduler yield point.
    /// The thread blocks at its first yield point until all participants have
    /// registered. Pair with [`clear_thread_scheduler`](PThread::clear_thread_scheduler)
    /// (or a [`FinishGuard`](crate::sched::FinishGuard)) so the baton skips
    /// this thread once it is done.
    pub fn set_thread_scheduler(&self, sched: Arc<ThreadScheduler>) {
        sched.register(self.pid);
        if self.hot_armed.get() & Self::ARMED_HB != 0 {
            // Scheduler registration is the worker's entry into a scheduled
            // window: the harness set-up that preceded it happens-before this
            // pid's scheduled instructions. Baton handovers *between* yield
            // points deliberately draw no edges — races in the scheduled
            // program must stay visible to the analyzer.
            self.mem.hb.locked().on_thread(self.pid);
        }
        *self.scheduler.borrow_mut() = Some(sched);
        self.set_hot(Self::ARMED_SCHED, true);
    }

    /// Remove the installed scheduler (marking this thread finished so the
    /// baton skips it) and return instructions to the un-scheduled fast path.
    /// Idempotent.
    pub fn clear_thread_scheduler(&self) {
        if let Some(sched) = self.scheduler.borrow_mut().take() {
            sched.finish(self.pid);
        }
        self.set_hot(Self::ARMED_SCHED, false);
    }

    /// Deliver a kill to every other scheduled participant (no-op without a
    /// scheduler): each raises a [`CrashSignal`](crate::CrashSignal) at its
    /// next yield point.
    pub(crate) fn kill_peers(&self) {
        if let Some(sched) = self.scheduler.borrow().as_ref() {
            sched.kill_peers(self.pid);
        }
    }

    /// Global (cross-process) index of the last instruction the scheduler
    /// granted this thread — a logical timestamp for concurrent-history
    /// oracles. Zero when no scheduler is (or was) installed.
    pub fn sched_step(&self) -> u64 {
        self.last_sched_step.get()
    }

    /// Resolve the word behind `addr`, going through the per-thread segment cache:
    /// consecutive accesses to the same 8 MiB segment (the overwhelmingly common
    /// case) cost an index computation and one comparison instead of a
    /// segment-table `OnceLock` load.
    #[inline]
    fn word_at(&self, addr: PAddr) -> &'m Word {
        let slice = self.segment_at(addr);
        &slice[addr.0 as usize % SEGMENT_WORDS]
    }

    /// The cache line containing `addr`, resolved once through the segment cache
    /// (a line never straddles segments).
    #[inline]
    fn line_at(&self, addr: PAddr) -> &'m [Word] {
        let slice = self.segment_at(addr);
        let off = addr.line_base().0 as usize % SEGMENT_WORDS;
        &slice[off..off + LINE_WORDS as usize]
    }

    #[inline]
    fn segment_at(&self, addr: PAddr) -> &'m [Word] {
        debug_assert!(!addr.is_null(), "dereferencing the null PAddr");
        let seg = addr.0 as usize / SEGMENT_WORDS;
        // `Relaxed` suffices for the identity mirror: an arena swap happens
        // under the same quiescence contract as `crash_all`, so the swap and
        // this access are already ordered by a join/channel edge; the load is
        // only here so a stale cache entry can never be *served*.
        let arena_id = self.mem.arena_id.load(Ordering::Relaxed);
        if let Some((cached_id, cached_seg, slice)) = self.seg_cache.get() {
            if cached_id == arena_id && cached_seg == seg {
                return slice;
            }
        }
        self.segment_at_slow(addr, seg)
    }

    #[cold]
    fn segment_at_slow(&self, addr: PAddr, seg: usize) -> &'m [Word] {
        StatCells::add(&self.stats.seg_resolves, 1);
        let arena = self.mem.arena();
        let slice = arena
            .segment(seg)
            .unwrap_or_else(|| panic!("access to unallocated persistent address {addr:?}"));
        // SAFETY: the slice is a boxed segment behind a `OnceLock`; it never
        // moves or drops while its arena is alive, and the machine `'m` keeps
        // every arena it ever used alive (the current one in `arena`, retired
        // ones in `retired`), so extending the borrow to `'m` is sound.
        let slice: &'m [Word] = unsafe { &*(slice as *const [Word]) };
        self.seg_cache.set(Some((arena.id(), seg, slice)));
        slice
    }

    /// The thread's monotonically increasing instruction counter.
    pub fn step_count(&self) -> u64 {
        self.step.get()
    }

    /// The current arena's identity, for keying analyzer state.
    #[inline]
    fn arena_key(&self) -> u64 {
        // Relaxed: swaps happen only at quiescent points (no handle mid-op),
        // and the key is only compared for equality, never dereferenced.
        self.mem.arena_id.load(Ordering::Relaxed)
    }

    // ----- happens-before analyzer hooks (behind the `ARMED_HB` fast bit) -----
    //
    // Each hook takes the analyzer lock *around* the actual memory access, so
    // armed-mode accesses are linearized exactly where the analyzer observes
    // them. `bump` — which may block at a scheduler yield point or unwind at a
    // crash point — always runs before the lock is taken.

    #[cold]
    fn hb_read(&self, addr: PAddr) -> u64 {
        let word = self.word_at(addr);
        let mut hb = self.mem.hb.locked();
        let v = word.load();
        let flags = hb.note_read(self.arena_key(), addr, self.pid, self.step.get());
        drop(hb);
        StatCells::add(&self.stats.hb_flags, flags);
        v
    }

    #[cold]
    fn hb_write(&self, addr: PAddr, value: u64, release: bool) {
        let word = self.word_at(addr);
        let mut hb = self.mem.hb.locked();
        word.store(value);
        if self.mode == Mode::PrivateCache {
            word.persist_now();
        }
        let flags = hb.note_write(self.arena_key(), addr, self.pid, self.step.get(), release);
        drop(hb);
        StatCells::add(&self.stats.hb_flags, flags);
    }

    #[cold]
    fn hb_cas(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64> {
        let word = self.word_at(addr);
        let mut hb = self.mem.hb.locked();
        let result = word.compare_exchange(expected, new);
        if result.is_ok() && self.mode == Mode::PrivateCache {
            word.persist_now();
        }
        let flags = if result.is_ok() {
            hb.note_sync_write(self.arena_key(), addr, self.pid, self.step.get())
        } else {
            // A failed CAS still read the word: acquire its release clock (the
            // witnessed value flows into this thread's subsequent decisions).
            hb.note_sync_read(self.arena_key(), addr, self.pid, self.step.get())
        };
        drop(hb);
        StatCells::add(&self.stats.hb_flags, flags);
        result
    }

    #[cold]
    fn hb_fetch_add(&self, addr: PAddr, delta: u64) -> u64 {
        let word = self.word_at(addr);
        let mut hb = self.mem.hb.locked();
        let prev = word.fetch_add(delta);
        if self.mode == Mode::PrivateCache {
            word.persist_now();
        }
        let flags = hb.note_sync_write(self.arena_key(), addr, self.pid, self.step.get());
        drop(hb);
        StatCells::add(&self.stats.hb_flags, flags);
        prev
    }

    #[cold]
    fn hb_flush(&self, addr: PAddr, line: &[Word]) {
        let mut hb = self.mem.hb.locked();
        self.write_back_line(line);
        hb.note_flush(self.arena_key(), addr, self.pid);
    }

    #[cold]
    fn hb_fence(&self) {
        self.mem.hb.locked().note_fence(self.pid);
    }

    // ----- shared-memory instructions ---------------------------------------

    /// Atomic read of a persistent word.
    #[inline]
    pub fn read(&self, addr: PAddr) -> u64 {
        self.bump(&self.stats.reads);
        let v = if self.hot_armed.get() & Self::ARMED_HB != 0 {
            self.hb_read(addr)
        } else {
            self.word_at(addr).load()
        };
        if self.opts.izraelevitz {
            // The automatic construction flushes the line after every access.
            self.flush(addr);
        }
        v
    }

    /// Atomic read annotated as an acquire of `addr`'s release clock.
    ///
    /// Under the happens-before analyzer every plain read of a synchronization
    /// word (one that has been CASed, fetch-added or release-written) already
    /// acquires; this alias exists so that call sites relying on that edge are
    /// greppable. Identical to [`PThread::read`] in every other respect.
    #[inline]
    pub fn read_acquire(&self, addr: PAddr) -> u64 {
        self.read(addr)
    }

    /// Atomic read annotated as intentionally racy: exempt from happens-before
    /// race *and* cross-failure checks (the instruction counters still see
    /// it).
    ///
    /// For protocol-level scans whose tolerance of stale or torn context is
    /// argued separately — e.g. the helping path reading a peer's evidence
    /// words, where the algorithm re-validates via CAS before acting.
    #[inline]
    pub fn read_racy(&self, addr: PAddr) -> u64 {
        self.bump(&self.stats.reads);
        let v = self.word_at(addr).load();
        if self.opts.izraelevitz {
            self.flush(addr);
        }
        v
    }

    /// Atomic write to a persistent word.
    ///
    /// In the private-cache model the store is immediately durable; in the
    /// shared-cache model it stays in the (volatile) cache until flushed.
    #[inline]
    pub fn write(&self, addr: PAddr, value: u64) {
        self.write_impl(addr, value, false);
    }

    /// Atomic write annotated as a release store: under the happens-before
    /// analyzer it transfers this thread's clock to `addr` like a successful
    /// CAS does (and marks the word as a synchronization word). Identical to
    /// [`PThread::write`] when the analyzer is disarmed.
    ///
    /// Use at plain-store publication sites whose readers are ordered by the
    /// store itself (announcement words, capsule control words).
    #[inline]
    pub fn write_release(&self, addr: PAddr, value: u64) {
        self.write_impl(addr, value, true);
    }

    #[inline]
    fn write_impl(&self, addr: PAddr, value: u64, release: bool) {
        self.bump(&self.stats.writes);
        if self.hot_armed.get() & Self::ARMED_HB != 0 {
            self.hb_write(addr, value, release);
        } else {
            let word = self.word_at(addr);
            word.store(value);
            if self.mode == Mode::PrivateCache {
                word.persist_now();
            }
        }
        self.untrack_line(addr);
        if self.opts.izraelevitz {
            self.flush(addr);
            self.fence();
        }
    }

    /// Atomic compare-and-swap; returns `true` on success.
    #[inline]
    pub fn cas(&self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.cas_full(addr, expected, new).is_ok()
    }

    /// Atomic compare-and-swap; returns `Ok(previous)` on success and
    /// `Err(witnessed)` on failure.
    #[inline]
    pub fn cas_full(&self, addr: PAddr, expected: u64, new: u64) -> Result<u64, u64> {
        self.bump(&self.stats.cas);
        let result = if self.hot_armed.get() & Self::ARMED_HB != 0 {
            self.hb_cas(addr, expected, new)
        } else {
            let word = self.word_at(addr);
            let result = word.compare_exchange(expected, new);
            if result.is_ok() && self.mode == Mode::PrivateCache {
                word.persist_now();
            }
            result
        };
        // Single, branchless accounting step for the attempt's outcome (the CAS
        // counter itself was bumped at the crash point above).
        StatCells::add(&self.stats.cas_success, result.is_ok() as u64);
        if result.is_ok() {
            self.untrack_line(addr);
        }
        if self.opts.izraelevitz {
            self.flush(addr);
            self.fence();
        }
        result
    }

    /// Atomic fetch-and-add (counted as a CAS-class update instruction). Not used
    /// by the paper's algorithms but handy for workload generators and tests.
    #[inline]
    pub fn fetch_add(&self, addr: PAddr, delta: u64) -> u64 {
        self.bump(&self.stats.cas);
        StatCells::add(&self.stats.cas_success, 1);
        let prev = if self.hot_armed.get() & Self::ARMED_HB != 0 {
            self.hb_fetch_add(addr, delta)
        } else {
            let word = self.word_at(addr);
            let prev = word.fetch_add(delta);
            if self.mode == Mode::PrivateCache {
                word.persist_now();
            }
            prev
        };
        self.untrack_line(addr);
        if self.opts.izraelevitz {
            self.flush(addr);
            self.fence();
        }
        prev
    }

    // ----- persistence instructions ------------------------------------------

    /// Flush the cache line containing `addr` (`clflushopt`). In the private-cache
    /// model this is a counted no-op (shared memory is already durable).
    ///
    /// A flush of a line this thread already flushed since its last fence,
    /// not re-dirtied since and still clean, is counted in
    /// [`Stats::duplicate_flushes`]. It executes like any other flush: the
    /// write-back of a clean word is a no-op by construction.
    #[inline]
    pub fn flush(&self, addr: PAddr) {
        self.bump(&self.stats.flushes);
        if self.mode == Mode::SharedCache {
            // Resolve the segment once for the whole 8-word line (and usually for
            // free, out of the per-thread segment cache).
            let line = self.line_at(addr);
            let base = addr.line_base().0;
            let len = self.pending_len.get();
            if (0..len).any(|i| self.pending_lines[i].get() == base) {
                if line.iter().all(Word::is_clean) {
                    StatCells::add(&self.stats.duplicate_flushes, 1);
                }
            } else if len < WINDOW_LINES {
                self.pending_lines[len].set(base);
                self.pending_len.set(len + 1);
            }
            if self.hot_armed.get() & Self::ARMED_HB != 0 {
                self.hb_flush(addr, line);
            } else {
                self.write_back_line(line);
            }
        }
    }

    /// Make every word of `line` durable. With peers around, each dirty word
    /// is written back and verified ([`Word::write_back`]); a one-process
    /// machine has no second flusher and keeps the relaxed copy.
    #[inline]
    fn write_back_line(&self, line: &[Word]) {
        if self.solo {
            line.iter().for_each(Word::persist_now);
        } else {
            line.iter().for_each(Word::write_back);
        }
    }

    /// Drop `addr`'s line from the duplicate-flush window, if tracked: this
    /// thread re-dirtied the line, so its next flush is not a duplicate.
    #[inline]
    fn untrack_line(&self, addr: PAddr) {
        let len = self.pending_len.get();
        if len != 0 {
            self.untrack_line_slow(addr, len);
        }
    }

    #[cold]
    fn untrack_line_slow(&self, addr: PAddr, len: usize) {
        let base = addr.line_base().0;
        for i in 0..len {
            if self.pending_lines[i].get() == base {
                self.pending_lines[i].set(self.pending_lines[len - 1].get());
                self.pending_len.set(len - 1);
                return;
            }
        }
    }

    /// Store fence (`sfence`): orders previously issued flushes before subsequent
    /// stores. The simulator persists eagerly at the flush, so the fence only
    /// contributes to instruction counts (and issues a real compiler/CPU fence so
    /// the simulation does not reorder more than the modelled machine would).
    /// Closes the duplicate-flush window: lines flushed before the fence
    /// count as duplicates again only after being re-flushed.
    #[inline]
    pub fn fence(&self) {
        self.bump(&self.stats.fences);
        self.pending_len.set(0);
        if self.hot_armed.get() & Self::ARMED_HB != 0 {
            self.hb_fence();
        }
        // SeqCst: the modelled sfence orders this thread's flushes before its
        // later stores; the strongest fence keeps the simulation's host-level
        // ordering at least as strict as the machine being modelled.
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Flush + fence: make `addr`'s line durable before continuing (the `psync`
    /// idiom used throughout the transformed algorithms).
    #[inline]
    pub fn persist(&self, addr: PAddr) {
        self.flush(addr);
        self.fence();
    }

    // ----- allocation ---------------------------------------------------------

    /// Allocate `nwords` consecutive persistent words (zero-initialised, and the
    /// zero state is already durable).
    pub fn alloc(&self, nwords: u64) -> PAddr {
        StatCells::add(&self.stats.words_allocated, nwords);
        self.mem.arena().alloc(nwords)
    }

    /// Allocate `nwords` consecutive persistent words starting at a cache-line
    /// boundary, so that the record's flush behaviour is independent of what was
    /// allocated before it (used for capsule frames).
    pub fn alloc_aligned(&self, nwords: u64) -> PAddr {
        StatCells::add(&self.stats.words_allocated, nwords);
        self.mem.arena().alloc_aligned(nwords)
    }

    // ----- convenience --------------------------------------------------------

    /// The `crashed()` system call for this process (resets the flag).
    pub fn take_crashed(&self) -> bool {
        self.mem.take_crashed(self.pid)
    }

    /// This process's persistent restart-pointer word.
    pub fn restart_word(&self) -> PAddr {
        self.mem.restart_word(self.pid)
    }
}

impl std::fmt::Debug for PThread<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PThread")
            .field("pid", &self.pid)
            .field("steps", &self.step.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{catch_crash, install_quiet_crash_hook};

    #[test]
    fn read_write_cas_round_trip() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 10);
        assert_eq!(t.read(a), 10);
        assert!(t.cas(a, 10, 11));
        assert!(!t.cas(a, 10, 12));
        assert_eq!(t.read(a), 11);
        assert_eq!(t.cas_full(a, 11, 13), Ok(11));
        assert_eq!(t.cas_full(a, 11, 14), Err(13));
    }

    #[test]
    fn stats_count_each_instruction_kind() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 1);
        t.read(a);
        t.read(a);
        t.cas(a, 1, 2);
        t.flush(a);
        t.fence();
        let s = t.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.cas, 1);
        assert_eq!(s.cas_success, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.words_allocated, 1);
        let taken = t.take_stats();
        assert_eq!(taken.reads, 2);
        assert_eq!(t.stats(), Stats::new());
    }

    #[test]
    fn shared_cache_crash_loses_unflushed_data() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let a = {
            let t = mem.thread(0);
            let a = t.alloc(2);
            t.write(a, 1);
            t.persist(a);
            t.write(a.offset(1), 2); // same line, not flushed? (line flush covers it)
            let b = t.alloc(crate::LINE_WORDS); // separate line
            t.write(b, 99); // never flushed
            (a, b)
        };
        mem.crash_all();
        let t = mem.thread(0);
        assert_eq!(t.read(a.0), 1, "flushed data must survive");
        assert_eq!(t.read(a.1), 0, "unflushed independent line is lost");
        assert!(mem.take_crashed(0));
        assert!(!mem.take_crashed(0), "crashed flag resets on read");
    }

    #[test]
    fn private_cache_crash_preserves_all_shared_writes() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::PrivateCache));
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 42); // no flush needed in the private-cache model
        mem.crash_all();
        assert_eq!(mem.peek(a), 42);
        assert!(mem.take_crashed(0));
        assert!(mem.take_crashed(1));
    }

    #[test]
    fn per_thread_crash_sets_only_that_flag_and_keeps_memory() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 5);
        mem.crash_thread(0);
        assert_eq!(mem.peek(a), 5, "independent process crash never rolls back memory");
        assert!(mem.peek_crashed(0));
        assert!(!mem.peek_crashed(1));
        assert!(mem.take_crashed(0));
    }

    #[test]
    fn izraelevitz_option_flushes_after_every_access() {
        let mem = PMem::with_threads(1);
        let t = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let a = t.alloc(1);
        t.write(a, 7);
        let after_write = t.stats();
        assert_eq!(after_write.flushes, 1);
        assert_eq!(after_write.fences, 1);
        t.read(a);
        let after_read = t.stats();
        assert_eq!(after_read.flushes, 2, "reads flush too under the construction");
        // And the data really is durable without any manual flush.
        mem.crash_all();
        assert_eq!(mem.peek(a), 7);
    }

    #[test]
    fn duplicate_flush_in_one_fence_window_is_counted() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 7);
        t.flush(a);
        t.flush(a); // same line, nothing re-dirtied: dedup-able
        t.flush(a.line_base()); // any word of the line dedups, not just `a`
        let s = t.stats();
        assert_eq!(s.flushes, 3, "duplicate flushes are still counted as issued");
        assert_eq!(s.duplicate_flushes, 2);
        mem.crash_all();
        assert_eq!(mem.peek(a), 7);
        // The private-cache model has no flush work, hence no duplicates.
        let mem = PMem::new(MemConfig::new(1).mode(Mode::PrivateCache));
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 3);
        t.flush(a);
        t.flush(a);
        assert_eq!(t.stats().duplicate_flushes, 0, "PPM flushes are counted no-ops");
    }

    #[test]
    fn fence_closes_the_duplicate_window() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 1);
        t.flush(a);
        t.fence();
        t.flush(a); // new window: a real (if no-op) flush, not a duplicate
        assert_eq!(t.stats().duplicate_flushes, 0);
        t.flush(a); // second flush in the new window: duplicate again
        assert_eq!(t.stats().duplicate_flushes, 1);
    }

    #[test]
    fn own_store_invalidates_the_tracked_line() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let a = t.alloc(2);
        t.write(a, 1);
        t.flush(a);
        t.write(a.offset(1), 2); // re-dirties the tracked line
        t.flush(a); // must be a full flush, or the second write is lost
        assert_eq!(t.stats().duplicate_flushes, 0);
        mem.crash_all();
        assert_eq!(mem.peek(a), 1);
        assert_eq!(mem.peek(a.offset(1)), 2);
        // Successful CAS and fetch-add invalidate the same way.
        let t = mem.thread(0);
        t.flush(a);
        assert!(t.cas(a, 1, 3));
        t.flush(a);
        t.fetch_add(a, 1);
        t.flush(a);
        assert_eq!(t.stats().duplicate_flushes, 0);
        mem.crash_all();
        assert_eq!(mem.peek(a), 4);
    }

    #[test]
    fn peer_dirtied_line_fails_the_clean_check_and_flushes_in_full() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        let a = t0.alloc(1);
        t0.write(a, 1);
        t0.flush(a);
        t1.write(a, 9); // peer re-dirties the line t0 has tracked
        t0.flush(a); // tracked but not clean: the persist walk must run
        assert_eq!(
            t0.stats().duplicate_flushes,
            0,
            "a flush that persists fresh peer data is not a duplicate"
        );
        mem.crash_all();
        assert_eq!(mem.peek(a), 9, "the helping flush made the peer's store durable");
    }

    #[test]
    fn duplicate_window_is_bounded() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let base = t.alloc_aligned((2 * WINDOW_LINES as u64 + 1) * crate::LINE_WORDS);
        // Fill the window, then flush an untracked line twice: with the window
        // full it cannot be tracked, so its repeat is not counted — but it must
        // still persist correctly.
        for i in 0..WINDOW_LINES as u64 {
            let a = base.offset(i * crate::LINE_WORDS);
            t.write(a, i + 1);
            t.flush(a);
        }
        let extra = base.offset(WINDOW_LINES as u64 * crate::LINE_WORDS);
        t.write(extra, 77);
        t.flush(extra);
        t.flush(extra);
        assert_eq!(t.stats().duplicate_flushes, 0);
        mem.crash_all();
        assert_eq!(mem.peek(extra), 77);
    }

    #[test]
    fn crash_policy_interrupts_execution_and_is_catchable() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.set_crash_policy(CrashPolicy::Countdown(3));
        let result = catch_crash(|| {
            for i in 0..100 {
                t.write(a, i);
            }
            "finished"
        });
        let crashed = result.unwrap_err();
        assert_eq!(crashed.signal.pid, 0);
        // After the crash the policy is spent; execution can resume normally.
        assert_eq!(catch_crash(|| t.read(a)).unwrap(), t.read(a));
    }

    #[test]
    fn recovery_steps_are_counted_separately() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.read(a);
        t.begin_recovery();
        t.read(a);
        t.read(a);
        t.end_recovery();
        t.read(a);
        let s = t.stats();
        assert_eq!(s.reads, 4);
        assert_eq!(s.recovery_steps, 2);
    }

    #[test]
    fn restart_words_are_per_process_and_persistent() {
        let mem = PMem::with_threads(3);
        let t0 = mem.thread(0);
        let t2 = mem.thread(2);
        assert_ne!(mem.restart_word(0), mem.restart_word(2));
        t0.write(t0.restart_word(), 111);
        t0.persist(t0.restart_word());
        t2.write(t2.restart_word(), 222);
        t2.persist(t2.restart_word());
        mem.crash_all();
        assert_eq!(mem.peek(mem.restart_word(0)), 111);
        assert_eq!(mem.peek(mem.restart_word(2)), 222);
    }

    #[test]
    fn durable_read_sees_only_flushed_values() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(crate::LINE_WORDS);
        t.write(a, 9);
        assert_eq!(mem.durable_read(a), 0);
        t.persist(a);
        assert_eq!(mem.durable_read(a), 9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pid_panics() {
        let mem = PMem::with_threads(2);
        let _ = mem.thread(2);
    }

    #[test]
    fn stats_report_crash_points_windowed() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 1);
        t.read(a);
        t.crash_point(); // explicit crash points count too
        assert_eq!(t.stats().crash_points, 3);
        assert_eq!(t.crash_points(), 3);
        let taken = t.take_stats();
        assert_eq!(taken.crash_points, 3);
        // The window resets; the lifetime counter (and AtStep semantics) do not.
        assert_eq!(t.stats().crash_points, 0);
        t.read(a);
        assert_eq!(t.stats().crash_points, 1);
        assert_eq!(t.crash_points(), 4);
    }

    #[test]
    fn crash_plan_schedule_fires_per_script_element() {
        use crate::crash::CrashPlan;
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        // Crash after 3 more crash points, then immediately at the next one
        // (the first crash point of the "recovery" code).
        t.set_crash_schedule(CrashPlan::new(vec![3, 0]));
        let first = catch_crash(|| {
            for i in 0..100 {
                t.write(a, i);
            }
        })
        .unwrap_err();
        assert_eq!(first.signal.pid, 0);
        // The very next instruction (nested schedule element) crashes again.
        let second = catch_crash(|| t.read(a)).unwrap_err();
        assert_eq!(second.signal.at_step, first.signal.at_step + 1);
        // Script exhausted: execution proceeds normally and the fast flag drops.
        assert_eq!(catch_crash(|| t.read(a)).unwrap(), t.read(a));
    }

    #[test]
    fn same_random_policy_on_two_pids_crashes_at_different_points() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(2);
        let steps_until_crash = |pid: usize| {
            let t = mem.thread(pid);
            let a = t.alloc(1);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.01, seed: 1234 });
            let crashed = catch_crash(|| {
                loop {
                    t.read(a);
                }
            })
            .unwrap_err();
            crashed.signal.at_step
        };
        // Identical declarative policy, fresh handles, identical instruction
        // sequences — but pid-derived RNG streams, so the crash points differ.
        assert_ne!(steps_until_crash(0), steps_until_crash(1));
    }

    #[test]
    fn hb_flags_an_unsynchronized_cross_thread_race() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
        mem.hb().arm();
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        let a = t0.alloc(1);
        t0.write(a, 7); // plain store, no release annotation
        let _ = t1.read(a); // no happens-before path from the store
        assert_eq!(t1.stats().hb_flags, 1, "{:?}", mem.hb().take_reports());
        let reports = mem.hb().take_reports();
        assert!(reports[0].contains("data race"), "{reports:?}");
    }

    #[test]
    fn hb_accepts_a_cas_handoff_and_a_release_handoff() {
        let mem = PMem::new(MemConfig::new(3).mode(Mode::SharedCache));
        mem.hb().arm();
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        let t2 = mem.thread(2);
        let data = t0.alloc(LINE_WORDS);
        let flag = t0.alloc(LINE_WORDS);
        // CAS publication: the successful CAS releases t0's clock; t1's plain
        // read of the CASed word acquires it, ordering the data read.
        t0.write(data, 7);
        assert!(t0.cas(flag, 0, 1));
        assert_eq!(t1.read(flag), 1);
        assert_eq!(t1.read(data), 7);
        // Release-store publication: same edge without a CAS.
        t1.write(data.offset(1), 8);
        t1.write_release(flag.offset(1), 1);
        assert_eq!(t2.read_acquire(flag.offset(1)), 1);
        assert_eq!(t2.read(data.offset(1)), 8);
        assert_eq!(mem.hb().flags(), 0, "{:?}", mem.hb().take_reports());
    }

    #[test]
    fn hb_flags_a_post_crash_read_of_an_unordered_publication() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        mem.hb().arm();
        let t = mem.thread(0);
        let ann = t.alloc(LINE_WORDS);
        let x = t.alloc(LINE_WORDS);
        t.write(ann, 7); // never flushed before the publication below
        assert!(t.cas(x, 0, ann.to_raw()));
        t.persist(x); // the pointer is durably ordered; the payload is not
        mem.crash_all();
        let _ = t.read(ann); // recovery consumes the unordered word
        assert_eq!(t.stats().hb_flags, 1, "{:?}", mem.hb().take_reports());
        let reports = mem.hb().take_reports();
        assert!(reports[0].contains("cross-failure race"), "{reports:?}");
    }

    #[test]
    fn hb_accepts_flush_fence_before_publish_across_a_crash() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        mem.hb().arm();
        let t = mem.thread(0);
        let ann = t.alloc(LINE_WORDS);
        let x = t.alloc(LINE_WORDS);
        t.write(ann, 7);
        t.persist(ann); // discipline: ordered durable before reachable
        assert!(t.cas(x, 0, ann.to_raw()));
        t.persist(x);
        mem.crash_all();
        assert_eq!(t.read(ann), 7);
        assert_eq!(t.read(x), ann.to_raw());
        assert_eq!(mem.hb().flags(), 0, "{:?}", mem.hb().take_reports());
    }

    #[test]
    fn hb_read_racy_is_exempt_from_both_flag_classes() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
        mem.hb().arm();
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        let a = t0.alloc(LINE_WORDS);
        let x = t0.alloc(LINE_WORDS);
        t0.write(a, 7);
        let _ = t1.read_racy(a); // annotated scan: no data-race flag
        assert!(t0.cas(x, 0, 1));
        t0.persist(x);
        mem.crash_all();
        let _ = t0.read_racy(a); // annotated recovery probe: no cross-failure flag
        assert_eq!(mem.hb().flags(), 0, "{:?}", mem.hb().take_reports());
    }

    #[test]
    fn hb_disarmed_or_refreshed_handles_track_arming() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
        mem.hb().disarm(); // DF_HB=1 may have armed it at construction
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        let a = t0.alloc(1);
        mem.hb().arm();
        t0.write(a, 7);
        let _ = t1.read(a);
        assert_eq!(mem.hb().flags(), 0, "stale handles must not analyze");
        t0.refresh_hb();
        t1.refresh_hb();
        // The refresh re-draws the creation edge, so only accesses *after* it
        // can race: a fresh unsynchronized pair still flags.
        t0.write(a, 8);
        let _ = t1.read(a);
        assert_eq!(mem.hb().flags(), 1, "{:?}", mem.hb().take_reports());
    }

    #[test]
    fn hb_is_inert_in_the_private_cache_model() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::PrivateCache));
        mem.hb().arm();
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        let a = t0.alloc(1);
        t0.write(a, 7);
        let _ = t1.read(a);
        t0.refresh_hb(); // also inert: the fast bit stays off in this model
        t0.write(a, 8);
        let _ = t1.read(a);
        assert_eq!(mem.hb().flags(), 0);
    }

    #[test]
    fn hb_state_does_not_leak_across_arena_swaps() {
        // Same hazard class as the per-thread segment cache: analyzer state
        // recorded against one arena must not fire (or be cleared) by events
        // on another after `swap_arena`.
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        mem.hb().arm();
        let t = mem.thread(0);
        let rec = t.alloc(LINE_WORDS);
        let ptr = t.alloc(LINE_WORDS);
        t.write(rec, 7);
        assert!(t.cas(ptr, 0, rec.to_raw())); // exposure in the first arena
        t.persist(ptr);

        let donor = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let d = donor.thread(0);
        d.alloc(2 * LINE_WORDS);
        drop(d);
        let old = mem.swap_arena(donor.arena_handle());
        mem.crash_all();
        let _ = t.read(rec); // the same address on the swapped-in medium
        assert_eq!(
            mem.hb().flags(),
            0,
            "a crash of the swapped-in arena must not consume the retired arena's exposure: {:?}",
            mem.hb().take_reports()
        );

        // Swapping the original arena back in, the recorded exposure is still
        // live — the next crash loses the word and its read is flagged.
        let _donor_arena = mem.swap_arena(old);
        mem.crash_all();
        let _ = t.read(rec);
        assert_eq!(
            mem.hb().flags(),
            1,
            "the retired arena's state must survive the round trip"
        );
    }

    #[test]
    fn seg_cache_does_not_survive_an_arena_swap() {
        // The multi-arena hazard: a handle's `(segment, slice)` cache resolved
        // against one arena must not be served after the machine swaps to
        // another — without the identity key, reads/writes would land in the
        // retired medium.
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let a = t.alloc(1);
        t.write(a, 7);
        assert_eq!(t.read(a), 7); // seg_cache now holds (old arena, segment 0)

        // A second medium with the identical layout but different contents.
        let donor = PMem::with_threads(1);
        let d = donor.thread(0);
        let a2 = d.alloc(1);
        assert_eq!(a2, a, "same allocation sequence must give the same layout");
        d.write(a2, 99);

        let old = mem.swap_arena(donor.arena_handle());
        assert_eq!(t.read(a), 99, "stale segment cache served the retired arena");
        t.write(a, 100);
        assert_eq!(donor.peek(a), 100, "write must land in the swapped-in arena");
        assert_eq!(old.word(a).load(), 7, "retired arena is untouched");
        assert!(t.stats().seg_resolves >= 2, "the swap must force a re-resolution");
    }

    #[test]
    fn machine_reattaches_over_a_surviving_arena() {
        // Shard-restart idiom: the machine (the "process") dies, the medium
        // survives, and a fresh machine boots over it, rediscovering the
        // restart-pointer array from the medium's system area.
        let arena;
        let a;
        {
            let mem = PMem::with_threads(2);
            let t = mem.thread(0);
            a = t.alloc(1);
            t.write(a, 41);
            t.persist(a);
            t.write(t.restart_word(), 0xCAFE);
            t.persist(t.restart_word());
            let v = mem.thread(1);
            v.write(v.restart_word(), 0xBEEF);
            // Never persisted: lost in the crash below.
            mem.crash_all();
            arena = mem.arena_handle();
        }
        let mem = PMem::with_arena(MemConfig::new(2), arena);
        let t = mem.thread(0);
        assert_eq!(t.read(a), 41, "persisted data must survive the incarnation change");
        assert_eq!(
            t.read(t.restart_word()),
            0xCAFE,
            "restart words must be rediscovered at the same addresses"
        );
        assert_eq!(mem.peek(mem.restart_word(1)), 0, "unflushed restart pointer rolled back");
    }

    #[test]
    #[should_panic(expected = "arena was laid out for")]
    fn reattaching_with_a_different_process_count_panics() {
        let first = PMem::with_threads(2);
        let arena = first.arena_handle();
        drop(first);
        let _ = PMem::with_arena(MemConfig::new(3), arena);
    }

    #[test]
    fn independent_machines_recover_independently() {
        // Two shards: a crash on one medium must not disturb the other.
        let shard_a = PMem::with_threads(1);
        let shard_b = PMem::with_threads(1);
        let ta = shard_a.thread(0);
        let tb = shard_b.thread(0);
        let wa = ta.alloc(1);
        let wb = tb.alloc(1);
        ta.write(wa, 1); // never flushed
        tb.write(wb, 2); // never flushed
        shard_a.crash_all();
        assert_eq!(shard_a.peek(wa), 0, "shard A lost its unflushed write");
        assert_eq!(shard_b.peek(wb), 2, "shard B must be untouched by A's crash");
        assert!(!shard_b.peek_crashed(0));
        assert!(shard_a.take_crashed(0));
    }

    #[test]
    fn concurrent_cas_from_many_threads_is_linearizable_counter() {
        let mem = PMem::with_threads(4);
        let a = mem.thread(0).alloc(1);
        std::thread::scope(|s| {
            for pid in 0..4 {
                let mem = &mem;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    for _ in 0..10_000 {
                        loop {
                            let v = t.read(a);
                            if t.cas(a, v, v + 1) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(mem.peek(a), 40_000);
    }
}
