//! §5: the Constant-Delay Simulator (single-instruction capsules).
//!
//! Every simulated instruction of the original program becomes its own capsule: the
//! instruction executes and is immediately followed by a capsule boundary. Reads and
//! private writes are trivially invisible when repeated; CASes are replaced by the
//! recoverable CAS wrapped in the `checkRecovery` protocol. The result is a
//! simulation with constant computation delay and constant recovery delay
//! (Theorem 5.1) — the most robust but most expensive of the three simulators.
//!
//! Operations are still expressed as program-counter state machines over a
//! [`CapsuleRuntime`] (that is the shape the paper's transformation emits); this
//! module supplies the per-instruction wrappers, each of which ends the current
//! capsule by emitting a boundary that advances the pc by one.

use capsules::{recoverable_cas, CapsuleRuntime};
use pmem::PAddr;
use rcas::RcasSpace;

/// The Constant-Delay Simulator: per-instruction capsule wrappers.
///
/// All wrappers take the *next* program counter explicitly, because in a state
/// machine the instruction's successor is not always `pc + 1` (branches).
#[derive(Clone, Copy, Debug)]
pub struct ConstantDelaySimulator {
    space: RcasSpace,
}

impl ConstantDelaySimulator {
    /// Build a simulator that uses `space` for its recoverable CASes.
    pub fn new(space: RcasSpace) -> ConstantDelaySimulator {
        ConstantDelaySimulator { space }
    }

    /// The recoverable-CAS space used by this simulator.
    pub fn space(&self) -> &RcasSpace {
        &self.space
    }

    /// Simulate a shared read as a single-instruction capsule: read, persist the
    /// result into `result_local`, boundary.
    pub fn read(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        result_local: usize,
        next_pc: u32,
    ) -> u64 {
        let v = self.space.read(rt.thread(), addr);
        rt.set_local(result_local, v);
        rt.boundary(next_pc);
        v
    }

    /// Simulate a read of a plain (non-recoverable-CAS) persistent word.
    pub fn read_plain(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        result_local: usize,
        next_pc: u32,
    ) -> u64 {
        let v = rt.thread().read(addr);
        rt.set_local(result_local, v);
        rt.boundary(next_pc);
        v
    }

    /// Simulate a private persistent write (no other process writes this location)
    /// as a single-instruction capsule. Repetition simply overwrites the same value,
    /// so the instruction is invisible when repeated (§5).
    pub fn write_private(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        value: u64,
        next_pc: u32,
    ) {
        rt.thread().write(addr, value);
        rt.boundary(next_pc);
    }

    /// Simulate a shared CAS as a single-instruction capsule: recoverable CAS with
    /// the `checkRecovery` protocol, persist the result into `result_local`,
    /// boundary. Returns whether the CAS took effect.
    pub fn cas(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        expected: u64,
        new: u64,
        result_local: usize,
        next_pc: u32,
    ) -> bool {
        let ok = recoverable_cas(rt, &self.space, addr, expected, new);
        rt.set_local(result_local, ok as u64);
        rt.boundary(next_pc);
        ok
    }

    /// Simulate a purely local computation step as its own capsule: store its result
    /// and advance. (The definition of k-computation delay counts local instructions
    /// too; keeping them encapsulated preserves the constant recovery delay.)
    pub fn local(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        result_local: usize,
        value: u64,
        next_pc: u32,
    ) {
        rt.set_local(result_local, value);
        rt.boundary(next_pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsules::{BoundaryStyle, CapsuleStep};
    use pmem::{install_quiet_crash_hook, CrashPolicy, PMem};

    /// A tiny "program": increment a shared counter `n` times, every instruction in
    /// its own capsule (read; cas; repeat). `arm` installs the crash schedule once
    /// the runtime's frame exists (so set-up is never interrupted).
    fn run_counter_with(
        mem: &PMem,
        pid: usize,
        space: &RcasSpace,
        x: PAddr,
        n: u64,
        arm: impl FnOnce(&pmem::PThread<'_>),
    ) -> u64 {
        let t = mem.thread(pid);
        let sim = ConstantDelaySimulator::new(*space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        let _ = t.take_stats();
        arm(&t);
        for _ in 0..n {
            rt.run_op(0, |rt| match rt.pc() {
                0 => {
                    sim.read(rt, x, 0, 1);
                    CapsuleStep::Continue
                }
                1 => {
                    let v = rt.local(0);
                    sim.cas(rt, x, v, v + 1, 1, 2);
                    CapsuleStep::Continue
                }
                // The branch on the CAS's persisted result is a capsule of its
                // own: pc 2 must not mean "done" while a lost CAS still has
                // to be retried, or a crash right here drops the increment.
                2 if rt.local(1) == 0 => {
                    rt.boundary(0);
                    CapsuleStep::Continue
                }
                2 => CapsuleStep::Done(()),
                pc => unreachable!("pc {pc}"),
            });
        }
        t.disarm_crashes();
        t.stats().crash_points
    }

    /// Policy-based wrapper kept for the torture tests below.
    fn run_counter(mem: &PMem, pid: usize, space: &RcasSpace, x: PAddr, n: u64, policy: CrashPolicy) -> u64 {
        run_counter_with(mem, pid, space, x, n, |t| t.set_crash_policy(policy))
    }

    #[test]
    fn counter_is_exact_without_crashes() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        run_counter(&mem, 0, &space, x, 50, CrashPolicy::Never);
        assert_eq!(space.read(&mem.thread(0), x), 50);
    }

    #[test]
    fn counter_is_exact_with_crashes() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        run_counter(
            &mem,
            0,
            &space,
            x,
            100,
            CrashPolicy::Random { prob: 0.03, seed: 3 },
        );
        assert_eq!(space.read(&mem.thread(0), x), 100);
    }

    #[test]
    fn concurrent_counter_is_exact_with_crashes() {
        install_quiet_crash_hook();
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 80;
        let mem = PMem::with_threads(THREADS);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, THREADS);
        let x = space.create(&t0, 0).addr();
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let mem = &mem;
                let space = &space;
                s.spawn(move || {
                    run_counter(
                        mem,
                        pid,
                        space,
                        x,
                        PER_THREAD,
                        CrashPolicy::Random {
                            prob: 0.01,
                            seed: 77 + pid as u64,
                        },
                    );
                });
            }
        });
        assert_eq!(space.read(&mem.thread(0), x), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        // Enumerate every crash point of a 3-increment run (count taken from
        // Stats) and replay with a single crash at k, then with a nested
        // crash-during-recovery schedule [k, 0]. Theorem 5.1 says every replay
        // must be invisible.
        install_quiet_crash_hook();
        let run = |plan: Option<pmem::CrashPlan>| -> (u64, u64) {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let space = RcasSpace::with_default_layout(&t, 1);
            let x = space.create(&t, 0).addr();
            let points = run_counter_with(&mem, 0, &space, x, 3, |t| {
                if let Some(p) = plan {
                    t.set_crash_schedule(p);
                }
            });
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
    fn every_instruction_gets_its_own_boundary() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        let sim = ConstantDelaySimulator::new(space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        rt.set_entry_boundary(false);
        let before = rt.metrics().boundaries;
        rt.run_op(0, |rt| match rt.pc() {
            0 => {
                sim.read(rt, x, 0, 1);
                CapsuleStep::Continue
            }
            1 => {
                let v = rt.local(0);
                sim.cas(rt, x, v, v + 1, 1, 2);
                CapsuleStep::Continue
            }
            2 => CapsuleStep::Done(()),
            _ => unreachable!(),
        });
        let after = rt.metrics().boundaries;
        assert_eq!(after - before, 2, "one boundary per simulated instruction");
    }

    #[test]
    fn write_private_and_local_advance_the_machine() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let sim = ConstantDelaySimulator::new(space);
        let scratch = t.alloc(1);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        let out = rt.run_op(0, |rt| match rt.pc() {
            0 => {
                sim.write_private(rt, scratch, 9, 1);
                CapsuleStep::Continue
            }
            1 => {
                sim.local(rt, 0, 33, 2);
                CapsuleStep::Continue
            }
            2 => {
                let v = sim.read_plain(rt, scratch, 1, 3);
                CapsuleStep::Done(v + rt.local(0))
            }
            3 => CapsuleStep::Done(rt.local(1) + rt.local(0)),
            _ => unreachable!(),
        });
        assert_eq!(out, 42);
    }
}
