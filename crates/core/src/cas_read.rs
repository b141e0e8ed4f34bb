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
//! CAS and a helping CAS ([`Simulator::mem`]) are issued and persisted, and the
//! contention-adaptive fast capsule. A single-CAS operation's placement is
//! mechanical — "generator capsule → CAS-Read capsule + wrap-up" — so it runs
//! the same [`NormalizedOp`] the §7 simulator does ([`Simulator::run`]).

use capsules::{recoverable_cas, BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure};
use pmem::{PAddr, PThread};
use rcas::RcasSpace;

use crate::fast::fast_op;
use crate::mem::RcasMem;
use crate::normalized::{CasDesc, CasList, Discipline, Next, NormalizedOp, PersistResult, WrapUp};
use crate::Simulator;

// An operation's pcs from its `CasFrame::pc`: read-only capsule, CAS-Read
// capsule, two done pcs (`PersistResult::to_done`), fast capsule.
const GEN: u32 = 0;
const CAS: u32 = 1;
const DONE: u32 = 2;
const FAST: u32 = 4;

/// Where the §6 placement keeps one operation in a capsule frame: the word
/// its entry boundary persists, the locals its CAS's fields are saved in
/// between the two capsules (`None`: [`NormalizedOp::rebuild`] derives it),
/// and the local of a result word ([`PersistResult::to_done`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CasFrame {
    /// The first of the operation's five pcs.
    pub pc: u32,
    /// `(local, word)` persisted at entry: the argument a resumed operation needs.
    pub entry: Option<(usize, u64)>,
    /// Local of [`CasDesc::obj`].
    pub obj: Option<usize>,
    /// Local of [`CasDesc::expected`].
    pub expected: Option<usize>,
    /// Local of [`CasDesc::new`].
    pub new: Option<usize>,
    /// Local of [`CasDesc::aux`].
    pub aux: Option<usize>,
    /// Local of a result word.
    pub out: usize,
}

impl CasFrame {
    /// Whether `pc` is one of this operation's.
    pub fn owns(&self, pc: u32) -> bool {
        pc.wrapping_sub(self.pc) <= FAST
    }

    /// The operation's fast-capsule pc.
    pub fn fast_pc(&self) -> u32 {
        self.pc + FAST
    }

    fn fields(&self, cas: &CasDesc) -> [(Option<usize>, u64); 4] {
        [
            (self.obj, cas.obj.to_raw()),
            (self.expected, cas.expected),
            (self.new, cas.new),
            (self.aux, cas.aux),
        ]
    }

    fn load(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CasDesc {
        let mut get = |slot: Option<usize>| slot.map_or(0, |i| rt.local(i));
        CasDesc::new(
            PAddr::from_raw(get(self.obj)),
            get(self.expected),
            get(self.new),
        )
        .with_aux(get(self.aux))
    }

    /// Keep `out` and emit the final boundary to its done pc. A result word
    /// the first capsule already saved in `out` (a pop's value is its CAS's
    /// `aux`) is not written again.
    fn finish<R: PersistResult>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        out: R,
        saved: Option<&CasDesc>,
    ) {
        let (done, word) = out.to_done();
        let kept =
            saved.and_then(|cas| self.fields(cas).into_iter().find(|f| f.0 == Some(self.out)));
        if let Some(word) = word.filter(|&w| kept.map(|f| f.1) != Some(w)) {
            rt.set_local(self.out, word);
        }
        rt.finish_boundary(self.pc + DONE + done);
    }

    /// The result a completed operation left at its done pc.
    fn finished<R: PersistResult>(&self, rt: &mut CapsuleRuntime<'_, '_>) -> Option<R> {
        let done = rt.pc().wrapping_sub(self.pc + DONE);
        (done < 2).then(|| R::from_done(done, rt.local(self.out)))
    }
}

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
    /// ([`capsule_cas`](Self::capsule_cas)).
    pub fn with_style(mut self, style: BoundaryStyle) -> CasReadSimulator {
        self.style = style;
        self
    }

    /// Let uncontended operations run as one un-checkpointed fast capsule
    /// ([`fast`](crate::fast)).
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

    /// The CAS that opens a CAS-Read capsule (Algorithm 3). Must be the capsule's
    /// first shared-memory effect; `expected`/`new` must come from state persisted
    /// at the previous boundary. On success its target line is persisted, its
    /// fence dropped in the `-Opt` style (the next publication is a CAS,
    /// whose lock prefix orders the flush just like the fence would — Px86).
    pub fn capsule_cas(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        expected: u64,
        new: u64,
    ) -> bool {
        let ok = recoverable_cas(rt, &self.space, addr, expected, new);
        if ok {
            self.discipline().persist_target(rt.thread(), addr);
        }
        ok
    }

    /// A shared read of a recoverable-CAS-formatted word. Reads are invisible and
    /// may appear anywhere in a capsule.
    pub fn read(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr) -> u64 {
        self.space.read(rt.thread(), addr)
    }

    fn discipline(&self) -> Discipline<'_> {
        Discipline {
            space: &self.space,
            durable: self.durable,
            lock_orders: self.style == BoundaryStyle::Compact,
        }
    }

    /// Pick the entry capsule of the next operation: `fast` when the simulator
    /// is adaptive and the handle's contention measure is off probation, `slow`
    /// (the fully checkpointed state machine) otherwise.
    fn enter(&self, rt: &mut CapsuleRuntime<'_, '_>, fast: u32, slow: u32) -> u32 {
        if self.adaptive && !rt.contention_mut().begin_op() {
            fast
        } else {
            slow
        }
    }

    /// Finish the operation `op` a previous incarnation left in `rt`'s frame:
    /// its result, and `false` if it had completed (read back from the done pc).
    /// `true` also covers a *completed* fast operation whose frame was never
    /// finalised: it returned with no final boundary, the next entry boundary
    /// never persisted, and its fast capsule answers again from the evidence
    /// of its CAS without repeating it ([`fast`](crate::fast)).
    pub fn resume<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> (O::Output, bool) {
        let f = op.frame();
        match f.finished(rt) {
            Some(out) => (out, false),
            None => (rt.resume_op(|rt| self.capsule(rt, op, input, &f)), true),
        }
    }

    /// One capsule of [`run`](Self::run).
    fn capsule<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
        f: &CasFrame,
    ) -> CapsuleStep<O::Output> {
        let d = self.discipline();
        let multi = || -> ! { panic!("the CAS-Read placement runs operations of at most one CAS") };
        match rt.pc().wrapping_sub(f.pc) {
            FAST => fast_op(
                rt,
                d,
                f.pc + GEN,
                op,
                input,
                |rt, out| f.finish(rt, out, None),
                |_, _| multi(),
            ),
            // The next boundary, not a CAS, publishes what the generator built.
            GEN => loop {
                let list = op.generator(&mut d.ctx(rt, Next::Boundary), input);
                match list[..] {
                    [] => {
                        if let WrapUp::Done(out) =
                            op.wrap_up(&mut d.ctx(rt, Next::Own), input, &list, 0)
                        {
                            f.finish(rt, out, None);
                            return CapsuleStep::Done(out);
                        }
                    }
                    [cas] => {
                        for (slot, word) in f.fields(&cas) {
                            if let Some(i) = slot {
                                rt.set_local(i, word);
                            }
                        }
                        rt.boundary(f.pc + CAS);
                        return CapsuleStep::Continue;
                    }
                    _ => multi(),
                }
            },
            CAS => {
                let cas = op.rebuild(f.load(rt));
                let executed = self.capsule_cas(rt, cas.obj, cas.expected, cas.new) as usize;
                let list: CasList = vec![cas];
                match op.wrap_up(&mut d.ctx(rt, Next::Own), input, &list, executed) {
                    WrapUp::Done(out) => {
                        f.finish(rt, out, Some(&cas));
                        CapsuleStep::Done(out)
                    }
                    WrapUp::Restart => {
                        rt.boundary(f.pc + GEN);
                        CapsuleStep::Continue
                    }
                }
            }
            pc => CapsuleStep::Done(
                f.finished(rt)
                    .unwrap_or_else(|| unreachable!("pc offset {pc}")),
            ),
        }
    }
}

impl Simulator for CasReadSimulator {
    const LOCALS: Option<usize> = None;

    /// Run a single-CAS normalized operation — the generator and wrap-up
    /// [`NormalizedSimulator::run`](crate::NormalizedSimulator::run) places as
    /// Algorithm 4 — to completion with the §6 placement, surviving crashes:
    /// a [`read_only`](NormalizedOp::read_only) one with no boundary at all;
    /// uncontended as one [`fast`](crate::fast)
    /// capsule; otherwise as a read-only capsule (the generator, its CAS saved
    /// at the boundary as the op's [`CasFrame`] says) and a CAS-Read capsule
    /// ([`capsule_cas`](Self::capsule_cas) from the saved fields, then the
    /// wrap-up — helping included — and the final boundary; a lost CAS whose
    /// wrap-up restarts goes back to the first). One CAS per capsule is the
    /// placement: a longer CAS list is a bug.
    fn run<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> O::Output {
        if op.read_only() {
            return self.discipline().run_read(rt, op, input);
        }
        let f = op.frame();
        if let Some((slot, word)) = f.entry {
            rt.set_local(slot, word);
        }
        let entry = self.enter(rt, f.pc + FAST, f.pc + GEN);
        rt.run_op(entry, |rt| self.capsule(rt, op, input, &f))
    }

    fn mem<'a, 't, 'm>(&'a self, thread: &'t PThread<'m>) -> RcasMem<'a, 't, 'm> {
        RcasMem::new(&self.space, thread, self.durable)
    }
    fn space(&self) -> &RcasSpace {
        &self.space
    }
    fn style(&self) -> BoundaryStyle {
        self.style
    }
    fn contention(&self) -> ContentionMeasure {
        self.contention
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

    /// A fetch-and-add declared once, as a normalized operation with no
    /// [`CasFrame`] of its own (the default keeps its whole CAS).
    struct FetchAdd(PAddr);

    impl NormalizedOp for FetchAdd {
        type Input = u64;
        type Output = u64;

        fn generator(&self, ctx: &mut crate::NormalizedCtx<'_, '_, '_>, add: &u64) -> CasList {
            let v = ctx.read(self.0);
            vec![CasDesc::new(self.0, v, v + add).with_aux(v)]
        }

        fn wrap_up(
            &self,
            _: &mut crate::NormalizedCtx<'_, '_, '_>,
            _: &u64,
            list: &CasList,
            executed: usize,
        ) -> WrapUp<u64> {
            match executed {
                1 => WrapUp::Done(list[0].aux),
                _ => WrapUp::Restart,
            }
        }
    }

    /// The same declaration under the §6 placement — fast and pinned slow, both
    /// frame styles — and under Algorithm 4, at every crash point (single and
    /// nested, per-process and full-system): three adds return 0, 1, 2 and
    /// leave 3, exactly once.
    #[test]
    fn one_declaration_is_exactly_once_under_both_simulators() {
        use crate::{NormalizedSimulator, Simulator};
        use pmem::{CrashPlan, MemConfig, Mode};
        install_quiet_crash_hook();
        fn adds<S: Simulator>(
            sim: impl Fn(RcasSpace) -> S,
            plan: Option<CrashPlan>,
            system: bool,
        ) -> u64 {
            let config = MemConfig::new(1).mode(Mode::SharedCache).system_crashes(system);
            let mem = PMem::new(config);
            let t = mem.thread(0);
            let space = RcasSpace::with_default_layout(&t, 1).with_durability(true);
            let x = space.create(&t, 0).addr();
            let sim = sim(space);
            let locals = S::LOCALS.unwrap_or(5);
            let mut rt = CapsuleRuntime::new(&t, sim.style(), locals);
            mem.persist_everything();
            let _ = t.take_stats();
            let label = format!("{plan:?} system={system}");
            if let Some(plan) = plan {
                t.set_crash_schedule(plan);
            }
            let olds: Vec<u64> = (0..3).map(|_| sim.run(&mut rt, &FetchAdd(x), &1)).collect();
            let points = t.stats().crash_points;
            t.disarm_crashes();
            assert_eq!((olds, space.read(&t, x)), (vec![0, 1, 2], 3), "{label}");
            points
        }
        fn sweep<S: Simulator>(sim: impl Fn(RcasSpace) -> S + Copy) {
            for system in [false, true] {
                for k in 0..adds(sim, None, system) {
                    adds(sim, Some(CrashPlan::once(k)), system);
                    adds(sim, Some(CrashPlan::nested(k, &[0])), system);
                }
            }
        }
        for style in [BoundaryStyle::General, BoundaryStyle::Compact] {
            for adaptive in [true, false] {
                sweep(move |space| {
                    let sim = CasReadSimulator::new(space)
                        .with_durable(true)
                        .with_style(style);
                    sim.with_adaptive(adaptive)
                });
            }
        }
        sweep(|space| NormalizedSimulator::new(space, true).with_adaptive(true));
    }
}
