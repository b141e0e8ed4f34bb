//! The per-process capsule runtime.
//!
//! [`CapsuleRuntime`] owns the volatile mirrors of the persisted state (program
//! counter, sequence number, locals), emits capsule boundaries, and — through
//! [`CapsuleRuntime::run_op`] — drives an encapsulated operation to completion
//! across any number of simulated crashes: every crash unwinds the operation body
//! (losing its Rust locals, i.e. the volatile memory of the model), the runtime
//! reloads the persistent frame, raises the `crashed()` flag, and re-enters the body
//! at the persisted program counter. A read-only operation runs outside the
//! frame altogether ([`CapsuleRuntime::run_read`]): re-running it is its recovery.
//!
//! Encapsulated operations are written as explicit state machines over the program
//! counter, which is exactly the code shape the paper's source-to-source
//! transformation would produce; see the `queues` crate for full examples and the
//! `delayfree` crate for the simulator-level wrappers.

use pmem::{catch_crash, raise_crash, PAddr, PThread};

use crate::contention::ContentionMeasure;
use crate::frame::{BoundaryStyle, Frame, SEQ_SLOT};

/// What an encapsulated operation body tells the driver after executing a capsule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapsuleStep<R> {
    /// The operation is not finished; run the next capsule (at the pc the body
    /// established with its last boundary).
    Continue,
    /// The operation finished with this result.
    Done(R),
}

/// Counters describing how much capsule machinery ran (complementing
/// [`pmem::Stats`], which counts the underlying memory instructions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CapsuleMetrics {
    /// Encapsulated operations started.
    pub operations: u64,
    /// Capsule executions (including repetitions after crashes).
    pub capsules: u64,
    /// Capsule boundaries written.
    pub boundaries: u64,
    /// Recoveries performed (frame reloads after a crash).
    pub recoveries: u64,
    /// Crashes that interrupted a recovery in progress (the nested
    /// crash-during-recovery path of [`CapsuleRuntime::run_op`]): the recovery was
    /// restarted from scratch, which is safe because it only reads. Exhaustive
    /// crash-point sweeps assert on this counter to prove the nested path ran.
    pub recovery_crashes: u64,
    /// Crashes that interrupted the operation-entry boundary, which `run_op`
    /// retries directly (no frame recovery needed: the arguments still live in
    /// the runtime's volatile mirrors and a torn boundary is unpublished), and
    /// crashes inside a read-only operation, which
    /// [`run_read`](CapsuleRuntime::run_read) retries the same way. Together
    /// with `recoveries` this accounts for every crash an operation absorbed,
    /// which is how the `dfck` sweeper proves a crash point was actually
    /// handled rather than silently skipped.
    pub entry_retries: u64,
    /// Operations the contention policy routed to the adaptive fast entry
    /// point (mirrors [`ContentionMeasure::fast_ops`]); the crash-point
    /// sweeps assert on this to prove fast-path code was actually crashed.
    pub fast_ops: u64,
    /// Fast→slow demotions: operations that started on the fast path and
    /// fell back to the full simulator after the CAS-failure streak tripped
    /// (mirrors [`ContentionMeasure::demotions`]).
    pub demotions: u64,
}

/// Per-process capsule state: a persistent [`Frame`] plus its volatile mirrors.
pub struct CapsuleRuntime<'t, 'm> {
    thread: &'t PThread<'m>,
    frame: Frame,
    /// Volatile mirror of the persisted slots (slot 0 = sequence number).
    locals: Vec<u64>,
    pc: u32,
    /// Bitmask of slots changed since the last boundary.
    dirty: u64,
    /// Bitmask of slots read since the last boundary (compact-frame hazard check).
    read_mask: u64,
    /// Whether a flush since the last boundary waits for the next one to fence it
    /// ([`fence_at_next_boundary`](Self::fence_at_next_boundary)).
    unfenced: bool,
    crashed: bool,
    /// The sequence number the next `run_op` raises its own to (see
    /// [`sync_seq_at_next_entry`](Self::sync_seq_at_next_entry)).
    seq_floor: u64,
    /// Whether `run_op` persists a boundary at operation entry (see
    /// [`set_entry_boundary`](Self::set_entry_boundary)).
    entry_boundary: bool,
    /// Whether the operation-final boundary is emitted (see
    /// [`set_final_boundary`](Self::set_final_boundary)).
    final_boundary: bool,
    /// Whether compact-frame boundaries assert the absence of write-after-read
    /// hazards (enabled by default; benchmarks may disable it).
    war_check: bool,
    /// When set, a caught crash is *not* absorbed: the signal is re-raised so it
    /// unwinds out of the operation driver entirely (see
    /// [`set_unwind_on_crash`](Self::set_unwind_on_crash)).
    unwind_on_crash: bool,
    /// Volatile contention policy for the adaptive fast path (see
    /// [`ContentionMeasure`]); never persisted, never affects crash
    /// correctness — it only routes operations between the fast and slow
    /// entry points.
    contention: ContentionMeasure,
    metrics: CapsuleMetrics,
}

impl<'t, 'm> CapsuleRuntime<'t, 'm> {
    /// Create a runtime with a freshly allocated frame for `nvars` user locals, and
    /// publish the frame in the process's restart pointer.
    pub fn new(thread: &'t PThread<'m>, style: BoundaryStyle, nvars: usize) -> Self {
        let frame = Frame::alloc(thread, style, nvars);
        // Publish the frame as this process's restart context (§2.1).
        thread.write(thread.restart_word(), frame.base().to_raw());
        thread.persist(thread.restart_word());
        CapsuleRuntime {
            thread,
            frame,
            locals: vec![0; nvars + 1],
            pc: 0,
            dirty: 0,
            read_mask: 0,
            unfenced: false,
            crashed: false,
            seq_floor: 0,
            entry_boundary: true,
            final_boundary: true,
            war_check: true,
            unwind_on_crash: false,
            contention: ContentionMeasure::new(),
            metrics: CapsuleMetrics::default(),
        }
    }

    /// [`new`](Self::new) for a process that announced sequence numbers up
    /// to `seq` through an earlier frame (a restart that builds a fresh frame
    /// rather than re-attaching): the new frame persists `seq` as its
    /// starting number, so no later operation hands one of them out again.
    pub fn new_after(
        thread: &'t PThread<'m>,
        style: BoundaryStyle,
        nvars: usize,
        seq: u64,
    ) -> Self {
        let mut rt = Self::new(thread, style, nvars);
        if seq > 0 {
            rt.frame.persist_initial_seq(thread, seq);
            rt.locals[SEQ_SLOT] = seq;
        }
        rt
    }

    /// Re-attach to the frame published in the process's restart pointer — what a
    /// process does when it restarts after a crash. The runtime comes up in the
    /// recovered state (persisted locals loaded, `crashed()` raised).
    pub fn attach_from_restart_pointer(
        thread: &'t PThread<'m>,
        style: BoundaryStyle,
        nvars: usize,
    ) -> Self {
        let base = PAddr::from_raw(thread.read(thread.restart_word()));
        let frame = Frame::attach(base, style, nvars);
        let mut rt = CapsuleRuntime {
            thread,
            frame,
            locals: vec![0; nvars + 1],
            pc: 0,
            dirty: 0,
            read_mask: 0,
            unfenced: false,
            crashed: false,
            seq_floor: 0,
            entry_boundary: true,
            final_boundary: true,
            war_check: true,
            unwind_on_crash: false,
            contention: ContentionMeasure::new(),
            metrics: CapsuleMetrics::default(),
        };
        rt.recover();
        rt
    }

    /// The thread this runtime issues instructions through.
    pub fn thread(&self) -> &'t PThread<'m> {
        self.thread
    }

    /// The persistent frame backing this runtime.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Capsule-level counters (the contention policy's fast-path telemetry is
    /// folded in so sweep harnesses read one struct).
    pub fn metrics(&self) -> CapsuleMetrics {
        let mut m = self.metrics;
        m.fast_ops = self.contention.fast_ops();
        m.demotions = self.contention.demotions();
        m
    }

    /// Control whether [`run_op`](Self::run_op) persists a boundary when the
    /// operation starts. The paper's experiments omit this per-operation boundary
    /// because it is common to every variant under test (§10); crash-recovery tests
    /// keep it on (the default) so that restarting an operation from its entry is
    /// always well defined.
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.entry_boundary = enabled;
    }

    /// Control whether [`finish_boundary`](Self::finish_boundary) actually persists
    /// the operation-final boundary. Like the entry boundary, the final boundary is
    /// the same for every variant (it doubles as the next operation's entry), so the
    /// paper's measurements elide it; disabling it trades away detectability of the
    /// very last operation's return value, which is exactly the trade-off §10
    /// discusses for the comparative experiments.
    pub fn set_final_boundary(&mut self, enabled: bool) {
        self.final_boundary = enabled;
    }

    /// Emit the boundary that ends an operation (persisting its return value),
    /// unless final boundaries are disabled for measurement parity.
    pub fn finish_boundary(&mut self, next_pc: u32) {
        if self.final_boundary {
            self.boundary(next_pc);
        } else {
            if std::mem::take(&mut self.unfenced) {
                self.thread.fence();
            }
            self.pc = next_pc;
            self.dirty = 0;
            self.read_mask = 0;
            self.crashed = false;
        }
    }

    /// End an operation whose durable result already lives outside the frame
    /// — a fast capsule's evidence-carrying CAS — without a final boundary.
    /// The frame stays at the operation's pc, so a restart resumes it from
    /// that evidence, and the changed slots stay dirty: the next
    /// [`run_op`](Self::run_op)'s entry boundary persists them (the advanced
    /// sequence number above all) and thereby retires the operation. With
    /// entry boundaries off nothing would ever persist them, so this does
    /// nothing and returns `false`: the caller emits its final boundary.
    pub fn retire_at_next_entry(&mut self) -> bool {
        if self.entry_boundary {
            self.crashed = false;
        }
        self.entry_boundary
    }

    /// Enable or disable the compact-frame write-after-read hazard assertion.
    pub fn set_war_check(&mut self, enabled: bool) {
        self.war_check = enabled;
    }

    /// Choose what happens when the operation driver catches a crash. The default
    /// (`false`) absorbs the crash: the runtime applies the machine-level fault,
    /// reloads the frame and re-enters the body — a process that restarts
    /// instantly and finishes its operation in place. With unwinding enabled the
    /// signal is re-raised instead, so the crash propagates out of
    /// [`run_op`](Self::run_op) / [`resume_op`](Self::resume_op) to whatever
    /// owns the OS thread — modelling a process incarnation that genuinely
    /// *dies* mid-operation. The persistent frame is untouched (the restart
    /// pointer still names it), so a later incarnation can
    /// [`attach_from_restart_pointer`](Self::attach_from_restart_pointer) and
    /// finish the operation with `resume_op`. The service harness uses this for
    /// its kill-restart drills; note the *caller* becomes responsible for
    /// applying the machine-level crash (e.g. `crash_all` once the shard's
    /// workers have quiesced).
    pub fn set_unwind_on_crash(&mut self, enabled: bool) {
        self.unwind_on_crash = enabled;
    }

    // ----- persisted locals ----------------------------------------------------

    /// Read user local `i` (its value as of the last boundary or the last
    /// `set_local` in this capsule).
    pub fn local(&mut self, i: usize) -> u64 {
        let slot = i + 1;
        assert!(slot <= self.frame.nvars(), "local {i} out of range");
        self.read_mask |= 1 << slot;
        self.locals[slot]
    }

    /// Set user local `i`; it will be persisted at the next boundary.
    pub fn set_local(&mut self, i: usize, value: u64) {
        let slot = i + 1;
        assert!(slot <= self.frame.nvars(), "local {i} out of range");
        self.locals[slot] = value;
        self.dirty |= 1 << slot;
    }

    /// Convenience: store a [`PAddr`] in a local.
    pub fn set_local_addr(&mut self, i: usize, addr: PAddr) {
        self.set_local(i, addr.to_raw());
    }

    /// Convenience: read a local as a [`PAddr`].
    pub fn local_addr(&mut self, i: usize) -> PAddr {
        PAddr::from_raw(self.local(i))
    }

    /// The current capsule's view of the per-process sequence number.
    pub fn seq(&self) -> u64 {
        self.locals[SEQ_SLOT]
    }

    /// Advance the sequence number (once per recoverable CAS). Repetitions of the
    /// same capsule see the same values because the counter is reset to its
    /// persisted value on recovery and re-advanced deterministically.
    pub fn advance_seq(&mut self) -> u64 {
        self.locals[SEQ_SLOT] += 1;
        self.dirty |= 1 << SEQ_SLOT;
        self.locals[SEQ_SLOT]
    }

    /// Raise the sequence number to `seq` if it is ahead of the volatile mirror —
    /// the fast-path recovery case where the announcement proves this process
    /// already advanced (and announced) a sequence number whose boundary never
    /// persisted. Repeating the operation with the recovered number keeps the
    /// never-reuse invariant of Algorithm 1.
    pub fn sync_seq(&mut self, seq: u64) {
        if seq > self.locals[SEQ_SLOT] {
            self.locals[SEQ_SLOT] = seq;
            self.dirty |= 1 << SEQ_SLOT;
        }
    }

    /// Make the next [`run_op`](Self::run_op) raise the sequence number to
    /// `seq` before its entry boundary persists it. A restarted process passes
    /// the last number it announced: the operation its frame names may have
    /// returned without persisting that number
    /// ([`retire_at_next_entry`](Self::retire_at_next_entry)), and a new
    /// operation must not reuse it — while resuming the operation the frame
    /// names ([`resume_op`](Self::resume_op)) must start from the number the
    /// frame persisted, which is why the raise waits for the next entry.
    pub fn sync_seq_at_next_entry(&mut self, seq: u64) {
        self.seq_floor = self.seq_floor.max(seq);
    }

    /// The volatile contention policy routing operations between the adaptive
    /// fast path and the full simulator.
    pub fn contention_mut(&mut self) -> &mut ContentionMeasure {
        &mut self.contention
    }

    /// Replace the contention policy (threshold/probation template). Purely
    /// volatile routing state: the sensitized `dfck` sweeps use a threshold-1
    /// policy so every lost fast-path CAS exercises the demotion boundary.
    pub fn set_contention(&mut self, policy: ContentionMeasure) {
        self.contention = policy;
    }

    /// The `crashed()` flag of Algorithm 3: true iff the current capsule is being
    /// re-executed because of a crash. Cleared by the next boundary.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The current program counter (the pc of the capsule being executed).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    // ----- boundaries and recovery ----------------------------------------------

    /// Emit a capsule boundary: persist every slot changed since the previous
    /// boundary together with the next program counter, atomically.
    pub fn boundary(&mut self, next_pc: u32) {
        if self.war_check
            && self
                .frame
                .check_compact_war(self.thread, self.read_mask, &self.locals, self.dirty)
        {
            panic!(
                "compact-frame write-after-read hazard: capsule at pc {} overwrites a local it depended on",
                self.pc
            );
        }
        self.frame
            .write_boundary(self.thread, next_pc, &self.locals, self.dirty, self.unfenced);
        self.pc = next_pc;
        self.dirty = 0;
        self.read_mask = 0;
        self.unfenced = false;
        self.crashed = false;
        self.metrics.boundaries += 1;
    }

    /// Let the next boundary order a flush the caller issued without a fence:
    /// it fences before publishing its control word even when no slot changed
    /// (a General boundary fences there only for changed slots, a Compact one
    /// never). An operation that ends with no boundary fences on its way out
    /// ([`finish_boundary`](Self::finish_boundary)); a crash drops the debt
    /// with the capsule that owed it.
    pub fn fence_at_next_boundary(&mut self) {
        self.unfenced = true;
    }

    /// Reload the persisted frame into the volatile mirrors (what the process does
    /// on restart). Raises the `crashed()` flag and counts the (constant) number of
    /// recovery instructions in [`pmem::Stats::recovery_steps`].
    pub fn recover(&mut self) {
        self.thread.begin_recovery();
        let (pc, values) = self.frame.recover(self.thread);
        self.thread.end_recovery();
        self.pc = pc;
        self.locals = values;
        self.dirty = 0;
        self.read_mask = 0;
        self.unfenced = false;
        self.crashed = true;
        // Consume the system-level crashed flag, mirroring the model's crashed().
        let _ = self.thread.mem().take_crashed(self.thread.pid());
        self.metrics.recoveries += 1;
    }

    // ----- operation driver ------------------------------------------------------

    /// Run an encapsulated operation to completion, surviving any number of
    /// simulated crashes.
    ///
    /// `entry_pc` is the program counter of the operation's first capsule. `body`
    /// executes exactly one capsule per invocation: it dispatches on
    /// [`pc()`](Self::pc), performs the capsule's instructions, emits a
    /// [`boundary`](Self::boundary) (except possibly before returning `Done`), and
    /// returns whether the operation continues or finished.
    ///
    /// Operation arguments that the first capsule needs across a crash must be
    /// stored with [`set_local`](Self::set_local) *before* calling `run_op`, so the
    /// entry boundary persists them.
    pub fn run_op<R>(
        &mut self,
        entry_pc: u32,
        body: impl FnMut(&mut Self) -> CapsuleStep<R>,
    ) -> R {
        self.metrics.operations += 1;
        self.pc = entry_pc;
        // Reads recorded since the previous operation's final boundary belong to
        // that *completed* operation — typically its result-reporting capsule
        // (re-)reading a persisted local after a crash. They are out of scope for
        // the compact-frame write-after-read check on this operation's entry
        // boundary: a crash inside the entry boundary is retried in place below
        // (the arguments still live in this runtime), never resumed from the
        // stale program counter, so overwriting those locals is safe.
        self.read_mask = 0;
        let floor = std::mem::take(&mut self.seq_floor);
        self.sync_seq(floor);
        if self.entry_boundary {
            // A crash during the entry boundary itself is retried directly: the
            // operation arguments still live in the caller (this runtime's volatile
            // mirrors), and a partially written boundary is harmless because the
            // control word is only published as its final step.
            loop {
                match catch_crash(|| self.boundary(entry_pc)) {
                    Ok(()) => break,
                    Err(crashed) => {
                        if self.unwind_on_crash {
                            raise_crash(crashed.signal.pid, crashed.signal.at_step);
                        }
                        self.metrics.entry_retries += 1;
                        self.thread.apply_crash();
                        self.pc = entry_pc;
                    }
                }
            }
        } else {
            self.dirty = 0;
            self.read_mask = 0;
            self.crashed = false;
        }
        self.drive(body)
    }

    /// Run a read-only operation: no entry boundary, no final boundary, and
    /// the frame — persisted and volatile — is left as the previous operation
    /// left it. A read has nothing to resume, so running it again is its
    /// recovery: a crash inside `body` is retried directly, exactly like a
    /// crash inside [`run_op`](Self::run_op)'s entry boundary (the arguments
    /// still live in the caller, and nothing durable names the operation), and
    /// is counted in [`CapsuleMetrics::entry_retries`]. Unwinding follows
    /// `run_op`; the crash flavour is the machine's, as everywhere
    /// ([`PThread::apply_crash`](pmem::PThread::apply_crash)).
    pub fn run_read<R>(&mut self, mut body: impl FnMut(&mut Self) -> R) -> R {
        self.metrics.operations += 1;
        loop {
            match catch_crash(|| body(self)) {
                Ok(result) => return result,
                Err(crashed) => {
                    if self.unwind_on_crash {
                        raise_crash(crashed.signal.pid, crashed.signal.at_step);
                    }
                    self.metrics.entry_retries += 1;
                    self.thread.apply_crash();
                }
            }
        }
    }

    /// Drive an *already-entered* operation to completion from the runtime's
    /// current program counter — no entry boundary, no pc reset.
    ///
    /// This is the restart half of [`run_op`](Self::run_op): after
    /// [`attach_from_restart_pointer`](Self::attach_from_restart_pointer) loaded
    /// the frame of an operation a previous incarnation left in flight, calling
    /// `resume_op` with the same body re-enters the persisted capsule (with
    /// [`crashed()`](Self::crashed) raised, exactly as an in-place recovery
    /// would) and runs the state machine to its `Done`. Calling it when the
    /// persisted pc already names a completed capsule simply re-executes that
    /// result-reporting capsule, which is how a restarted process reads back the
    /// return value of an operation whose ack was lost in the crash.
    pub fn resume_op<R>(&mut self, body: impl FnMut(&mut Self) -> CapsuleStep<R>) -> R {
        self.metrics.operations += 1;
        self.drive(body)
    }

    /// The crash-absorbing capsule loop shared by `run_op` and `resume_op`.
    fn drive<R>(&mut self, mut body: impl FnMut(&mut Self) -> CapsuleStep<R>) -> R {
        loop {
            self.metrics.capsules += 1;
            match catch_crash(|| body(self)) {
                Ok(CapsuleStep::Done(result)) => return result,
                Ok(CapsuleStep::Continue) => continue,
                Err(crashed) => {
                    if self.unwind_on_crash {
                        // Kill-restart mode: the incarnation dies here instead of
                        // recovering in place; the frame keeps the operation.
                        raise_crash(crashed.signal.pid, crashed.signal.at_step);
                    }
                    // The thread's volatile state is gone (the closure unwound);
                    // simulate the restart: mark the crash, reload the frame. The
                    // recovery itself may be interrupted by a further crash — the
                    // model allows crashes at any instruction — so retry it until
                    // it completes (recovery is idempotent: it only reads).
                    self.thread.apply_crash();
                    while catch_crash(|| self.recover()).is_err() {
                        // A crash interrupted the recovery itself (the model allows
                        // crashes at any instruction); count it so sweeps can assert
                        // the nested path was exercised, then restart the recovery.
                        self.metrics.recovery_crashes += 1;
                        self.thread.apply_crash();
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for CapsuleRuntime<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapsuleRuntime")
            .field("pid", &self.thread.pid())
            .field("pc", &self.pc)
            .field("seq", &self.locals[SEQ_SLOT])
            .field("crashed", &self.crashed)
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPolicy, PMem};

    #[test]
    fn locals_persist_across_boundary_and_recovery() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 3);
        rt.set_local(0, 5);
        rt.set_local(2, 7);
        rt.boundary(1);
        // Volatile scribble that is *not* followed by a boundary.
        rt.set_local(0, 999);
        rt.recover();
        assert_eq!(rt.local(0), 5);
        assert_eq!(rt.local(1), 0);
        assert_eq!(rt.local(2), 7);
        assert_eq!(rt.pc(), 1);
        assert!(rt.crashed());
        rt.boundary(2);
        assert!(!rt.crashed(), "boundary clears the crashed flag");
    }

    #[test]
    fn seq_is_stable_across_capsule_repetition() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
        rt.boundary(0);
        let s1 = rt.advance_seq();
        // Crash before the boundary: the advance is lost...
        rt.recover();
        let s2 = rt.advance_seq();
        assert_eq!(s1, s2, "a repeated capsule must reuse the same sequence number");
        rt.boundary(1);
        let s3 = rt.advance_seq();
        assert_eq!(s3, s2 + 1, "a new capsule gets a fresh sequence number");
    }

    #[test]
    fn run_op_completes_simple_state_machine() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        // Compute sum of 1..=10 with one addend per capsule, persisted as it goes.
        let total = rt.run_op(0, |rt| {
            let i = rt.pc() as u64;
            if i == 10 {
                return CapsuleStep::Done(rt.local(0));
            }
            let acc = rt.local(0) + (i + 1);
            rt.set_local(0, acc);
            rt.boundary(rt.pc() + 1);
            CapsuleStep::Continue
        });
        assert_eq!(total, 55);
        let metrics = rt.metrics();
        assert_eq!(metrics.operations, 1);
        assert_eq!(metrics.capsules, 11);
        assert!(metrics.boundaries >= 11);
        assert_eq!(metrics.recoveries, 0);
    }

    #[test]
    fn run_op_survives_random_crashes_with_exact_result() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        t.set_crash_policy(CrashPolicy::Random {
            prob: 0.05,
            seed: 42,
        });
        let total = rt.run_op(0, |rt| {
            let i = rt.pc() as u64;
            if i == 50 {
                return CapsuleStep::Done(rt.local(0));
            }
            let acc = rt.local(0) + (i + 1);
            rt.set_local(0, acc);
            rt.boundary(rt.pc() + 1);
            CapsuleStep::Continue
        });
        t.disarm_crashes();
        assert_eq!(total, (1..=50).sum::<u64>());
        assert!(
            rt.metrics().recoveries > 0,
            "the crash policy should have interrupted at least one capsule"
        );
        assert!(t.stats().crashes >= rt.metrics().recoveries);
    }

    #[test]
    fn nested_crash_during_recovery_is_retried_and_counted() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        rt.set_local(0, 9);
        // Crash inside the capsule body, then again at the first instruction of
        // each of the next two recovery attempts (deterministic nested schedule).
        t.set_crash_schedule(pmem::CrashPlan::new(vec![10, 0, 0]));
        let out = rt.run_op(0, |rt| {
            let probe = rt.thread().alloc(1);
            for _ in 0..8 {
                let _ = rt.thread().read(probe);
            }
            CapsuleStep::Done(rt.local(0))
        });
        t.disarm_crashes();
        assert_eq!(out, 9, "result must be exact despite crash-during-recovery");
        assert_eq!(
            rt.metrics().recovery_crashes,
            2,
            "both nested crashes must hit (and be retried inside) recovery"
        );
        assert!(rt.metrics().recoveries >= 1);
        assert_eq!(t.stats().crashes, 3);
    }

    #[test]
    fn entry_boundary_persists_operation_arguments() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        rt.set_local(1, 123); // the operation "argument"
        // The entry boundary costs 7 instructions (read control, write copy, flush,
        // fence, write control, flush, fence); fire the crash inside the body.
        t.set_crash_policy(CrashPolicy::Countdown(8));
        let arg_seen = rt.run_op(7, |rt| {
            // Burn a few instructions so the crash fires inside this capsule.
            let probe = rt.thread().alloc(1);
            for _ in 0..3 {
                let _ = rt.thread().read(probe);
            }
            CapsuleStep::Done(rt.local(1))
        });
        t.disarm_crashes();
        assert_eq!(arg_seen, 123, "argument must survive the crash via the entry boundary");
        assert!(rt.metrics().recoveries > 0);
        assert_eq!(rt.pc(), 7);
    }

    #[test]
    fn attach_from_restart_pointer_resumes_published_frame() {
        let mem = PMem::with_threads(1);
        let frame_pc;
        {
            let t = mem.thread(0);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
            rt.set_local(1, 88);
            rt.boundary(4);
            frame_pc = rt.pc();
            // Simulate losing the whole process (drop rt and the thread handle).
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::attach_from_restart_pointer(&t, BoundaryStyle::General, 2);
        assert!(rt.crashed());
        assert_eq!(rt.pc(), frame_pc);
        assert_eq!(rt.local(1), 88);
    }

    /// A fresh frame started after announced sequence numbers keeps its
    /// starting number across a full-system crash before its first boundary,
    /// and its first operation advances past it (both frame styles).
    #[test]
    fn new_after_persists_its_starting_seq() {
        for style in [BoundaryStyle::General, BoundaryStyle::Compact] {
            let mem = PMem::new(pmem::MemConfig::new(1).mode(pmem::Mode::SharedCache));
            let t = mem.thread(0);
            let rt = CapsuleRuntime::new_after(&t, style, 2, 41);
            assert_eq!(rt.seq(), 41);
            mem.crash_all();
            let mut rt = CapsuleRuntime::attach_from_restart_pointer(&t, style, 2);
            assert_eq!((rt.pc(), rt.seq()), (0, 41), "{style:?}");
            let seq = rt.run_op(0, |rt| CapsuleStep::Done(rt.advance_seq()));
            assert_eq!(seq, 42, "{style:?}");
        }
    }

    #[test]
    fn compact_runtime_round_trips() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::Compact, 3);
        rt.set_local(0, 10);
        rt.set_local(1, 20);
        rt.boundary(2);
        rt.set_local(2, 30);
        rt.boundary(3);
        rt.recover();
        assert_eq!((rt.local(0), rt.local(1), rt.local(2)), (10, 20, 30));
        assert_eq!(rt.pc(), 3);
    }

    #[test]
    #[should_panic(expected = "write-after-read hazard")]
    fn compact_war_hazard_is_detected() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::Compact, 2);
        rt.set_local(0, 1);
        rt.boundary(1);
        // This capsule reads local 0 and then tries to persist a different value
        // into it: with a single-copy frame that is unsafe.
        let v = rt.local(0);
        rt.set_local(0, v + 1);
        rt.boundary(2);
    }

    #[test]
    fn scheduled_workers_survive_system_crashes_with_exact_results() {
        use pmem::{CrashPlan, MemConfig, Mode, SchedConfig, ThreadScheduler};
        use std::sync::Arc;
        install_quiet_crash_hook();
        const WORKERS: usize = 3;
        const CAPSULES: u64 = 12;
        // Three capsule runtimes interleaved by a deterministic scheduler; pid 0
        // takes a nested full-system crash schedule (crash in the workload, then
        // again inside its own recovery). The peers are parked mid-instruction
        // at both crashes and observe them as kills; everyone's state machine
        // must still produce the exact sum.
        let run = |seed: u64| -> (Vec<(u64, u64)>, u64) {
            let config = MemConfig::new(WORKERS).mode(Mode::SharedCache).system_crashes(true);
            let mem = PMem::new(config);
            let sched = ThreadScheduler::new(SchedConfig::new(WORKERS, seed));
            let per_pid: Vec<(u64, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..WORKERS)
                    .map(|pid| {
                        let mem = &mem;
                        let sched = &sched;
                        s.spawn(move || {
                            let t = mem.thread(pid);
                            t.set_thread_scheduler(Arc::clone(sched));
                            let _guard = sched.finish_guard(pid);
                            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
                            if pid == 0 {
                                t.set_crash_schedule(CrashPlan::new(vec![25, 3]));
                            }
                            let total = rt.run_op(0, |rt| {
                                let i = rt.pc() as u64;
                                if i == CAPSULES {
                                    return CapsuleStep::Done(rt.local(0));
                                }
                                let acc = rt.local(0) + (i + 1);
                                rt.set_local(0, acc);
                                rt.boundary(rt.pc() + 1);
                                CapsuleStep::Continue
                            });
                            t.disarm_crashes();
                            let crashes = t.stats().crashes;
                            t.clear_thread_scheduler();
                            (total, crashes)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            (per_pid, sched.fingerprint())
        };
        let (per_pid, fingerprint) = run(7);
        let expected: u64 = (1..=CAPSULES).sum();
        for (pid, &(total, _)) in per_pid.iter().enumerate() {
            assert_eq!(total, expected, "pid {pid} lost state across the crash");
        }
        assert!(
            per_pid[0].1 >= 2,
            "the victim must observe both scripted crashes: {per_pid:?}"
        );
        for pid in 1..WORKERS {
            assert!(
                per_pid[pid].1 >= 1,
                "peer {pid} must observe the system crash as a kill: {per_pid:?}"
            );
        }
        // Deterministic: the same seed reproduces results and interleaving.
        let (again, fp_again) = run(7);
        assert_eq!(per_pid, again);
        assert_eq!(fingerprint, fp_again);
        // And a different seed reaches a different interleaving.
        let (_, fp_other) = run(8);
        assert_ne!(fingerprint, fp_other);
    }

    #[test]
    fn unwind_on_crash_kills_the_incarnation_and_resume_op_finishes_the_op() {
        install_quiet_crash_hook();
        const CAPSULES: u64 = 10;
        // The operation body both incarnations share: sum 1..=CAPSULES with one
        // addend per capsule, accumulator persisted at every boundary.
        fn body(rt: &mut CapsuleRuntime) -> CapsuleStep<u64> {
            let i = rt.pc() as u64;
            if i == CAPSULES {
                return CapsuleStep::Done(rt.local(0));
            }
            let acc = rt.local(0) + (i + 1);
            rt.set_local(0, acc);
            rt.boundary(rt.pc() + 1);
            CapsuleStep::Continue
        }
        let mem = PMem::with_threads(1);
        // Incarnation 1: dies mid-operation — the crash unwinds out of run_op.
        let died = {
            let t = mem.thread(0);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
            rt.set_unwind_on_crash(true);
            t.set_crash_policy(CrashPolicy::Countdown(40));
            catch_crash(|| rt.run_op(0, body))
        };
        let signal = died.expect_err("the crash must escape run_op").signal;
        assert_eq!(signal.pid, 0);
        // The incarnation is gone; apply the machine-level fault it suffered.
        mem.crash_all();
        // Incarnation 2: re-attach the frame the restart pointer still names and
        // drive the interrupted operation to its exact result.
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::attach_from_restart_pointer(&t, BoundaryStyle::General, 2);
        assert!(rt.crashed());
        let pc_at_death = rt.pc();
        assert!(
            (1..CAPSULES as u32).contains(&pc_at_death),
            "the crash should land mid-operation, got pc {pc_at_death}"
        );
        let total = rt.resume_op(body);
        assert_eq!(total, (1..=CAPSULES).sum::<u64>());
        assert_eq!(rt.pc(), CAPSULES as u32);
    }

    /// A read-only operation writes no boundary and leaves the frame alone; a
    /// crash inside it is retried in place (counted as an entry retry, no
    /// recovery), a system crash rolls the machine back before the retry, and
    /// in kill-restart mode the crash escapes.
    #[test]
    fn run_read_retries_in_place_and_leaves_the_frame_alone() {
        use pmem::{CrashPlan, MemConfig, Mode};
        install_quiet_crash_hook();
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache).system_crashes(true));
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        rt.set_local(0, 5);
        rt.boundary(3);
        let x = t.alloc(1);
        mem.persist_everything();
        t.write(x, 7); // never flushed: a system crash rolls it back to 0
        let read_twice = |rt: &mut CapsuleRuntime| (rt.thread().read(x), rt.thread().read(x));
        let before = rt.metrics();
        t.set_crash_schedule(CrashPlan::once(1));
        assert_eq!(
            rt.run_read(read_twice),
            (0, 0),
            "the retry reads the rolled-back word"
        );
        t.disarm_crashes();
        let m = rt.metrics();
        assert_eq!(m.entry_retries - before.entry_retries, 1);
        assert_eq!(m.operations - before.operations, 1);
        assert_eq!(
            (m.recoveries, m.boundaries),
            (before.recoveries, before.boundaries)
        );
        assert_eq!((rt.pc(), rt.local(0), rt.crashed()), (3, 5, false));
        rt.recover();
        assert_eq!(
            (rt.pc(), rt.local(0)),
            (3, 5),
            "the persisted frame is untouched"
        );

        rt.set_unwind_on_crash(true);
        t.set_crash_schedule(CrashPlan::once(0));
        let died = catch_crash(|| rt.run_read(read_twice));
        t.disarm_crashes();
        let signal = died.expect_err("the crash must escape run_read").signal;
        assert_eq!(signal.pid, 0);
        assert_eq!(rt.metrics().entry_retries, m.entry_retries);
    }

    /// An operation retired at the next entry leaves the persisted frame as
    /// its own entry boundary left it; that next entry boundary persists the
    /// sequence number it advanced. With entry boundaries off the caller is
    /// told to emit its final boundary, which persists the number at once.
    #[test]
    fn retire_at_next_entry_defers_the_seq_to_the_next_entry_boundary() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let op = |rt: &mut CapsuleRuntime| {
            rt.run_op(4, |rt| {
                let seq = rt.advance_seq();
                if !rt.retire_at_next_entry() {
                    rt.finish_boundary(5);
                }
                CapsuleStep::Done(seq)
            })
        };
        let persisted = |rt: &CapsuleRuntime| {
            let (pc, slots) = rt.frame().recover(&t);
            (pc, slots[SEQ_SLOT])
        };

        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
        assert_eq!(op(&mut rt), 1);
        assert_eq!(rt.metrics().boundaries, 1, "the entry boundary alone");
        assert_eq!(persisted(&rt), (4, 0), "the frame still names the op");
        assert!(!rt.crashed());
        rt.run_op(9, |_| CapsuleStep::Done(()));
        assert_eq!(persisted(&rt), (9, 1), "the next entry persisted the seq");

        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
        rt.set_entry_boundary(false);
        assert_eq!(op(&mut rt), 1);
        assert_eq!(rt.metrics().boundaries, 1, "the final boundary alone");
        assert_eq!(persisted(&rt), (5, 1));
    }

    /// A restart after a retired operation: resuming it starts from the
    /// persisted sequence number, and only the next operation's entry raises
    /// the number to the floor the restart passed in.
    #[test]
    fn sync_seq_at_next_entry_waits_for_the_next_operation() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
        rt.run_op(4, |rt| {
            rt.advance_seq();
            rt.retire_at_next_entry();
            CapsuleStep::Done(())
        });
        let mut rt = CapsuleRuntime::attach_from_restart_pointer(&t, BoundaryStyle::General, 1);
        rt.sync_seq_at_next_entry(1);
        assert_eq!(rt.resume_op(|rt| CapsuleStep::Done(rt.seq())), 0);
        assert_eq!(rt.run_op(9, |rt| CapsuleStep::Done(rt.advance_seq())), 2);
        let (pc, slots) = rt.frame().recover(&t);
        assert_eq!((pc, slots[SEQ_SLOT]), (9, 1), "the entry persisted the floor");
    }

    #[test]
    fn war_check_can_be_disabled() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::Compact, 2);
        rt.set_war_check(false);
        rt.set_local(0, 1);
        rt.boundary(1);
        let v = rt.local(0);
        rt.set_local(0, v + 1);
        rt.boundary(2); // does not panic
        assert_eq!(rt.local(0), 2);
    }

    /// A flush handed to the next boundary is fenced before the control
    /// store even when the boundary saves no slot, on either frame, and an
    /// operation that ends with no final boundary fences it on its way out.
    /// The debt is paid once: the boundary after costs what it did.
    #[test]
    fn a_deferred_fence_is_paid_by_the_next_boundary_even_with_no_slot_saved() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        for style in [BoundaryStyle::General, BoundaryStyle::Compact] {
            let mut rt = CapsuleRuntime::new(&t, style, 1);
            let fences = |rt: &mut CapsuleRuntime, defer: bool| {
                let before = t.stats().fences;
                if defer {
                    rt.fence_at_next_boundary();
                }
                rt.boundary(1);
                t.stats().fences - before
            };
            assert_eq!(fences(&mut rt, true), 2, "{style:?}: before and after the control store");
            assert_eq!(fences(&mut rt, false), 1, "{style:?}: after the control store only");
            rt.set_final_boundary(false);
            rt.fence_at_next_boundary();
            let before = t.stats().fences;
            rt.finish_boundary(2);
            assert_eq!(t.stats().fences - before, 1, "{style:?}: an elided final boundary");
        }
    }

    #[test]
    fn skipping_entry_boundary_reduces_persistence_cost() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
        let run = |rt: &mut CapsuleRuntime, _label: &str| {
            let before = rt.thread().stats();
            rt.run_op(0, |rt| {
                rt.boundary(1);
                CapsuleStep::Done(())
            });
            rt.thread().stats().since(&before)
        };
        rt.set_entry_boundary(true);
        let with_entry = run(&mut rt, "with");
        rt.set_entry_boundary(false);
        let without_entry = run(&mut rt, "without");
        assert!(without_entry.fences < with_entry.fences);
    }
}
