//! §6: the Low-Computation-Delay Simulator (CAS-Read and Read-Only capsules).
//!
//! Instead of a boundary after *every* instruction, boundaries are placed only where
//! the CAS-Read discipline requires one:
//!
//! * a capsule contains **at most one CAS** to shared memory, and it must be the
//!   capsule's first shared-memory effect,
//! * any number of shared **reads** and local operations may follow,
//! * a capsule that begins with a persistent write of a private heap location may
//!   freely read and rewrite that location (there is no write-after-read hazard:
//!   restarting the capsule overwrites it again),
//! * otherwise, a read of a heap location followed by a write to it needs a boundary
//!   in between (§6 / the Blelloch-et-al. idempotence rule).
//!
//! Fewer boundaries mean less computation delay but a longer re-execution after a
//! crash — exactly the trade-off of the paper's "General" queue variant.
//!
//! The simulator owns every decision of the construction that is not the
//! transformed program's own: which frame layout handles use, whether flushes are
//! hand-placed and which of their fences the `-Opt` style may drop, how a capsule
//! CAS and a helping CAS ([`mem`](CasReadSimulator::mem)) are issued and
//! persisted, and the contention-adaptive fast capsule
//! ([`fast_capsule`](CasReadSimulator::fast_capsule)). A transformed structure
//! holds one simulator and writes only its capsules.

use capsules::{recoverable_cas, BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure};
use pmem::{PAddr, PThread};
use rcas::RcasSpace;

use crate::fast::{fast_capsule, Attempt, Proposal};
use crate::mem::RcasMem;
use crate::normalized::CasDesc;

/// The Low-Computation-Delay (CAS-Read) simulator.
#[derive(Clone, Copy, Debug)]
pub struct CasReadSimulator {
    space: RcasSpace,
    durable: bool,
    style: BoundaryStyle,
    adaptive: bool,
    contention: ContentionMeasure,
}

impl CasReadSimulator {
    /// Build a simulator that uses `space` for its recoverable CASes: no
    /// hand-placed flushes, [`BoundaryStyle::General`] frames, no fast path.
    pub fn new(space: RcasSpace) -> CasReadSimulator {
        CasReadSimulator {
            space,
            durable: false,
            style: BoundaryStyle::General,
            adaptive: false,
            contention: ContentionMeasure::new(),
        }
    }

    /// Place flushes by hand (the shared-cache "manual" discipline): data a
    /// boundary or a CAS publishes is persisted first, CAS targets after.
    pub fn with_durable(mut self, durable: bool) -> CasReadSimulator {
        self.durable = durable;
        self
    }

    /// The frame layout of handles. [`BoundaryStyle::Compact`] is the `-Opt`
    /// configuration, which also drops the fences a CAS makes redundant
    /// ([`persist_line`](Self::persist_line)).
    pub fn with_style(mut self, style: BoundaryStyle) -> CasReadSimulator {
        self.style = style;
        self
    }

    /// Let uncontended operations run as one un-checkpointed fast capsule
    /// ([`enter`](Self::enter), [`fast_capsule`](Self::fast_capsule)).
    pub fn with_adaptive(mut self, adaptive: bool) -> CasReadSimulator {
        self.adaptive = adaptive;
        self
    }

    /// The contention policy handles start with (sensitized sweeps lower the
    /// trip threshold so the fast→slow demotion is deterministically reached).
    pub fn with_contention(mut self, policy: ContentionMeasure) -> CasReadSimulator {
        self.contention = policy;
        self
    }

    /// The recoverable-CAS space used by this simulator.
    pub fn space(&self) -> &RcasSpace {
        &self.space
    }

    /// Whether the simulator issues hand-placed flushes.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// The frame layout of handles.
    pub fn style(&self) -> BoundaryStyle {
        self.style
    }

    /// Whether operations may enter through their fast capsule.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// The contention-policy template copied into every handle's runtime.
    pub fn contention(&self) -> ContentionMeasure {
        self.contention
    }

    /// The [`SharedMem`] face for parallelizable code run on `thread` inside
    /// this simulator's capsules (and for quiescent walks outside them).
    pub fn mem<'a, 't, 'm>(&'a self, thread: &'t PThread<'m>) -> RcasMem<'a, 't, 'm> {
        RcasMem::new(&self.space, thread, self.durable)
    }

    /// The CAS that opens a CAS-Read capsule (Algorithm 3). Must be the capsule's
    /// first shared-memory effect; `expected`/`new` must come from state persisted
    /// at the previous boundary. On success its target line is persisted
    /// ([`persist_line`](Self::persist_line)).
    pub fn capsule_cas(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        expected: u64,
        new: u64,
    ) -> bool {
        let ok = recoverable_cas(rt, &self.space, addr, expected, new);
        if ok {
            self.persist_line(rt.thread(), addr);
        }
        ok
    }

    /// Run one contention-adaptive fast capsule ([`fast`](crate::fast): crash
    /// triage, then propose → evidence-carrying CAS → persist → finish,
    /// demoting to `slow_pc` under contention). CAS targets are persisted with
    /// [`persist_line`](Self::persist_line); `finish` runs once the CAS took
    /// effect (a CAS-Read operation never completes on a lost CAS).
    pub fn fast_capsule<R>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        slow_pc: u32,
        propose: impl FnMut(&mut CapsuleRuntime<'_, '_>) -> Proposal<R>,
        mut finish: impl FnMut(&mut CapsuleRuntime<'_, '_>, &CasDesc, Attempt) -> R,
    ) -> CapsuleStep<R> {
        let persist = |t: &PThread<'_>, addr| self.persist_line(t, addr);
        fast_capsule(rt, &self.space, persist, slow_pc, propose, |rt, cas, attempt| {
            attempt.took_effect().then(|| finish(rt, cas, attempt))
        })
    }

    /// A shared read of a recoverable-CAS-formatted word. Reads are invisible and
    /// may appear anywhere in a capsule.
    pub fn read(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr) -> u64 {
        self.space.read(rt.thread(), addr)
    }

    /// A shared read of a plain persistent word.
    pub fn read_plain(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr) -> u64 {
        rt.thread().read(addr)
    }

    /// A persistent write to a *private* heap location (e.g. initialising a freshly
    /// allocated node before it is published). Safe anywhere in a capsule because a
    /// restart simply performs the write again.
    pub fn write_private(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr, value: u64) {
        rt.thread().write(addr, value);
    }

    /// Flush a line and fence, per the manual discipline — except that the
    /// `-Opt` style omits the fence: the next publication is a CAS, whose lock
    /// prefix orders the pending flush just like the fence would (Px86). A
    /// capsule *boundary* does not qualify — see
    /// [`persist_line_before_boundary`](Self::persist_line_before_boundary).
    pub fn persist_line(&self, thread: &PThread<'_>, addr: PAddr) {
        if !self.durable {
            return;
        }
        thread.flush(addr);
        if self.style != BoundaryStyle::Compact {
            thread.fence();
        }
    }

    /// Flush a line and fence unconditionally (under the manual discipline): for
    /// data whose next publication is a capsule boundary rather than a CAS.
    /// The compact boundary publishes its control word with a release *store* —
    /// a plain `mov` on x86, which (unlike a locked CAS) does not order earlier
    /// `clflushopt`s — so a crash between the boundary's own flush and its
    /// trailing fence could persist the frame without the node it references.
    /// Recovery would then resume from the boundary and link a node whose
    /// contents never became durable.
    pub fn persist_line_before_boundary(&self, thread: &PThread<'_>, addr: PAddr) {
        if !self.durable {
            return;
        }
        thread.flush(addr);
        thread.fence();
    }

    /// Pick the entry capsule of the next operation: `fast` when the simulator
    /// is adaptive and the handle's contention measure is off probation, `slow`
    /// (the fully checkpointed state machine) otherwise.
    pub fn enter(&self, rt: &mut CapsuleRuntime<'_, '_>, fast: u32, slow: u32) -> u32 {
        if self.adaptive && !rt.contention_mut().begin_op() {
            fast
        } else {
            slow
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsules::BoundaryStyle;
    use pmem::{install_quiet_crash_hook, CrashPolicy, PMem};

    /// The canonical CAS-Read encapsulation of a fetch-and-increment: capsule 0
    /// (read-only) reads and persists the expected value, capsule 1 (CAS-Read) does
    /// the CAS. Compare with the constant-delay test: same machine, half the
    /// boundaries for the read part.
    fn increment(
        mem: &PMem,
        pid: usize,
        space: &RcasSpace,
        x: PAddr,
        n: u64,
        policy: CrashPolicy,
    ) -> capsules::CapsuleMetrics {
        let t = mem.thread(pid);
        let sim = CasReadSimulator::new(*space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        // Arm crash injection only after the runtime's frame exists.
        t.set_crash_policy(policy);
        for _ in 0..n {
            rt.run_op(0, |rt| match rt.pc() {
                0 => {
                    let v = sim.read(rt, x);
                    rt.set_local(0, v);
                    rt.boundary(1);
                    CapsuleStep::Continue
                }
                1 => {
                    let v = rt.local(0);
                    if sim.capsule_cas(rt, x, v, v + 1) {
                        rt.boundary(2);
                        CapsuleStep::Done(())
                    } else {
                        rt.boundary(0);
                        CapsuleStep::Continue
                    }
                }
                2 => CapsuleStep::Done(()),
                pc => unreachable!("pc {pc}"),
            });
        }
        t.disarm_crashes();
        rt.metrics()
    }

    #[test]
    fn increments_are_exact_without_crashes() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        increment(&mem, 0, &space, x, 64, CrashPolicy::Never);
        assert_eq!(space.read(&mem.thread(0), x), 64);
    }

    #[test]
    fn increments_are_exact_with_crashes() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(2);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 2);
        let x = space.create(&t, 0).addr();
        std::thread::scope(|s| {
            for pid in 0..2 {
                let mem = &mem;
                let space = &space;
                s.spawn(move || {
                    increment(
                        mem,
                        pid,
                        space,
                        x,
                        120,
                        CrashPolicy::Random {
                            prob: 0.02,
                            seed: 11 + pid as u64,
                        },
                    );
                });
            }
        });
        assert_eq!(space.read(&mem.thread(0), x), 240);
    }

    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        // dfck-style enumeration at the simulator level: learn the crash-point
        // count of a crash-free run from Stats, then replay once per point k
        // (and once per nested [k, 0] crash-during-recovery schedule) asserting
        // the counter is exact every time.
        install_quiet_crash_hook();
        let run = |plan: Option<pmem::CrashPlan>| -> (u64, u64) {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let space = RcasSpace::with_default_layout(&t, 1);
            let x = space.create(&t, 0).addr();
            let sim = CasReadSimulator::new(space);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            for _ in 0..3 {
                rt.run_op(0, |rt| match rt.pc() {
                    0 => {
                        let v = sim.read(rt, x);
                        rt.set_local(0, v);
                        rt.boundary(1);
                        CapsuleStep::Continue
                    }
                    1 => {
                        let v = rt.local(0);
                        if sim.capsule_cas(rt, x, v, v + 1) {
                            rt.boundary(2);
                            CapsuleStep::Done(())
                        } else {
                            rt.boundary(0);
                            CapsuleStep::Continue
                        }
                    }
                    2 => CapsuleStep::Done(()),
                    pc => unreachable!("pc {pc}"),
                });
            }
            let points = t.stats().crash_points;
            t.disarm_crashes();
            (space.read(&t, x), points)
        };
        let (value, n) = run(None);
        assert_eq!(value, 3);
        assert!(n > 0);
        for k in 0..n {
            let (v, _) = run(Some(pmem::CrashPlan::once(k)));
            assert_eq!(v, 3, "crash at point {k} changed the result");
            let (v, _) = run(Some(pmem::CrashPlan::new(vec![k, 0])));
            assert_eq!(v, 3, "nested crash at point {k} changed the result");
        }
    }

    #[test]
    fn uses_fewer_boundaries_than_constant_delay() {
        // Both simulators execute the same 20 uncontended increments; the CAS-Read
        // encapsulation needs 2 boundaries per op (read capsule + CAS capsule +
        // entry disabled), the single-instruction encapsulation needs one per
        // instruction which is strictly more once the extra result-persists are
        // counted.
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        let metrics = increment(&mem, 0, &space, x, 20, CrashPolicy::Never);
        // entry boundary + read capsule + CAS capsule = 3 boundaries per operation.
        assert_eq!(metrics.boundaries, 3 * 20);
        assert_eq!(metrics.operations, 20);
    }
}
