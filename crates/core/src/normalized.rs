//! §7 / Algorithm 4: the Persistent Normalized Simulator.
//!
//! A *normalized* lock-free operation (Timnat & Petrank) consists of three parts:
//!
//! 1. a **CAS generator** — reads shared memory and produces the list of CASes that
//!    would make the operation take effect; parallelizable (safe to repeat),
//! 2. a **CAS executor** — performs the CASes in order until the first failure,
//! 3. a **wrap-up** — inspects how far the executor got and either produces the
//!    operation's result or asks for the whole operation to restart; parallelizable.
//!
//! Because the generator and wrap-up are parallelizable, they need no recoverable-CAS
//! machinery and no internal boundaries: the simulator places exactly **one capsule
//! boundary per iteration of the retry loop**, immediately before the executor, and
//! persists the generated CAS list there. The executor's CASes use the recoverable
//! CAS with consecutive sequence numbers, so after a crash the recovery function
//! pinpoints the last CAS that succeeded and execution resumes from the next one
//! (Theorem 7.1).
//!
//! Locations that both an executor and a generator/wrap-up may CAS must use the
//! *anonymous* CAS ([`SharedMem::help_cas`] on [`NormalizedCtx::mem`]) in the parallelizable parts so
//! that executor notifications are never clobbered (§7).

use std::cell::RefCell;

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure};
use pmem::{PAddr, PThread};
use rcas::{check_recovery, RcasSpace};

use crate::fast::{fast_capsule, Attempt, Proposal};
use crate::mem::{RcasMem, SharedMem};

/// One entry of a CAS list: CAS `obj` from `expected` to `new`. The `aux` word is
/// carried along untouched — data structures use it to pass information from the
/// generator to the wrap-up (e.g. the value a dequeue is about to return), and it is
/// persisted together with the rest of the list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CasDesc {
    /// The recoverable-CAS-formatted word to CAS.
    pub obj: PAddr,
    /// Expected application value.
    pub expected: u64,
    /// New application value.
    pub new: u64,
    /// Operation-defined payload persisted with the list.
    pub aux: u64,
}

impl CasDesc {
    /// A CAS description with no auxiliary payload.
    pub fn new(obj: PAddr, expected: u64, new: u64) -> CasDesc {
        CasDesc {
            obj,
            expected,
            new,
            aux: 0,
        }
    }

    /// Attach an auxiliary payload.
    pub fn with_aux(mut self, aux: u64) -> CasDesc {
        self.aux = aux;
        self
    }
}

/// The list of CASes produced by a generator.
pub type CasList = Vec<CasDesc>;

/// What a wrap-up decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WrapUp<T> {
    /// The operation is complete with this result.
    Done(T),
    /// The operation must restart from the generator.
    Restart,
}

/// Results that can be persisted in a single word at the operation's final boundary
/// (needed for detectability: a crash after the final boundary must still be able to
/// report the operation's return value).
pub trait PersistResult: Copy {
    /// Encode into one word.
    fn to_word(self) -> u64;
    /// Decode from one word.
    fn from_word(word: u64) -> Self;
}

impl PersistResult for () {
    fn to_word(self) -> u64 {
        0
    }
    fn from_word(_: u64) -> Self {}
}

impl PersistResult for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl PersistResult for bool {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word != 0
    }
}

/// `None` ↦ 0, `Some(v)` ↦ `(v << 1) | 1`; values must fit in 63 bits.
impl PersistResult for Option<u64> {
    fn to_word(self) -> u64 {
        match self {
            None => 0,
            Some(v) => {
                assert!(v < (1 << 63), "Option<u64> results must fit in 63 bits");
                (v << 1) | 1
            }
        }
    }
    fn from_word(word: u64) -> Self {
        if word & 1 == 0 {
            None
        } else {
            Some(word >> 1)
        }
    }
}

/// The environment handed to generators and wrap-ups: shared-memory access plus the
/// helping CAS for locations the executor also updates. [`mem`](Self::mem) is its
/// [`SharedMem`] face, so parallelizable code written once over that face runs
/// here unchanged.
pub struct NormalizedCtx<'a, 't, 'm> {
    rt: &'a mut CapsuleRuntime<'t, 'm>,
    sim: &'a NormalizedSimulator,
}

impl<'a, 't, 'm> NormalizedCtx<'a, 't, 'm> {
    /// Wrap a capsule runtime for use inside a parallelizable method of `sim`.
    pub fn new(rt: &'a mut CapsuleRuntime<'t, 'm>, sim: &'a NormalizedSimulator) -> Self {
        NormalizedCtx { rt, sim }
    }

    /// The [`SharedMem`] face of this method's memory accesses: reads, private
    /// writes, allocation, and the *helping* CAS (anonymous, so an executor's
    /// notification on the same word survives — §7) with its flushes.
    pub fn mem(&self) -> RcasMem<'a, 't, 'm> {
        self.sim.mem(self.rt.thread())
    }

    /// Read a recoverable-CAS-formatted word (returns its application value).
    pub fn read(&self, addr: PAddr) -> u64 {
        self.mem().read(addr)
    }

    /// A plain CAS on a word that no executor ever touches (e.g. the tail pointer of
    /// the Michael–Scott queue, which is only advanced by helping code).
    pub fn plain_cas(&mut self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.rt.thread().cas(addr, expected, new)
    }

    /// Flush + fence a line when the simulator places flushes by hand (a
    /// generator persisting the node its CAS is about to publish).
    pub fn persist(&self, addr: PAddr) {
        let m = self.mem();
        m.flush_line(addr);
        m.fence();
    }
}

/// A normalized lock-free operation, in the three-part form of Timnat & Petrank.
pub trait NormalizedOp {
    /// The operation's input (owned by the caller; available to every part).
    type Input;
    /// The operation's result; must be persistable for detectability.
    type Output: PersistResult;

    /// The CAS generator (parallelizable): read shared memory, produce the CAS list.
    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, input: &Self::Input) -> CasList;

    /// The wrap-up (parallelizable): given the CAS list and the index of the first
    /// executor CAS that failed (= `cas_list.len()` if all succeeded), finish the
    /// operation or request a restart.
    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        input: &Self::Input,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<Self::Output>;
}

/// Program counters of the simulator's capsule state machine.
const PC_GEN: u32 = 0;
const PC_EXEC: u32 = 1;
const PC_DONE: u32 = 2;
/// Contention-adaptive fast path: generator + single-CAS executor + wrap-up in
/// one un-checkpointed capsule (no persisted CAS list; crash recovery resolves
/// the attempt from the evidence on the announcement line instead).
const PC_FAST: u32 = 3;

/// Persisted local slots used by the simulator.
const L_BUF: usize = 0;
const L_LEN: usize = 1;
const L_OUT: usize = 2;
/// First of the four slots used when a single-entry CAS list is stored inline in
/// the frame instead of a heap buffer (the `-Opt` optimisation).
const L_INLINE: usize = 3;

/// Number of user locals a [`CapsuleRuntime`] needs to run this simulator.
pub const NORMALIZED_LOCALS: usize = 3;
/// Number of user locals needed when inline CAS lists are enabled
/// ([`NormalizedSimulator::with_inline_lists`]).
pub const NORMALIZED_INLINE_LOCALS: usize = 7;

/// The Persistent Normalized Simulator (Algorithm 4).
#[derive(Clone, Copy, Debug)]
pub struct NormalizedSimulator {
    space: RcasSpace,
    durable: bool,
    style: BoundaryStyle,
    inline_lists: bool,
    adaptive: bool,
    contention: ContentionMeasure,
}

impl NormalizedSimulator {
    /// Build a simulator. With `durable = true` the simulator flushes the persisted
    /// CAS list and every object an executor CAS updates, which is the hand-placed
    /// flush discipline of the paper's "manual" shared-cache variants; with
    /// `durable = false` no flushes are issued (private-cache model, or the
    /// Izraelevitz construction supplied by the thread options).
    pub fn new(space: RcasSpace, durable: bool) -> NormalizedSimulator {
        NormalizedSimulator {
            space,
            durable,
            style: BoundaryStyle::General,
            inline_lists: false,
            adaptive: false,
            contention: ContentionMeasure::new(),
        }
    }

    /// The frame layout of handles ([`BoundaryStyle::Compact`] is the `-Opt`
    /// configuration).
    pub fn with_style(mut self, style: BoundaryStyle) -> NormalizedSimulator {
        self.style = style;
        self
    }

    /// The frame layout of handles.
    pub fn style(&self) -> BoundaryStyle {
        self.style
    }

    /// The [`SharedMem`] face for code run on `thread` on this simulator's
    /// behalf: inside generators and wrap-ups ([`NormalizedCtx::mem`]) and for
    /// quiescent walks outside any operation.
    pub fn mem<'a, 't, 'm>(&'a self, thread: &'t PThread<'m>) -> RcasMem<'a, 't, 'm> {
        RcasMem::new(&self.space, thread, self.durable)
    }

    /// The contention policy handles start with (sensitized sweeps lower the
    /// trip threshold so the fast→slow demotion is deterministically reached).
    pub fn with_contention(mut self, policy: ContentionMeasure) -> NormalizedSimulator {
        self.contention = policy;
        self
    }

    /// The contention-policy template copied into every handle's runtime.
    pub fn contention(&self) -> ContentionMeasure {
        self.contention
    }

    /// Enable the hand-optimisation used by the paper's `Normalized-Opt` variant:
    /// a CAS list with at most one entry is persisted directly in the capsule frame
    /// (ideally a [`BoundaryStyle::Compact`](capsules::BoundaryStyle) frame, so the
    /// whole boundary is one flush and one fence) instead of a separate heap buffer,
    /// saving one flush + fence per operation. The runtime must provide
    /// [`NORMALIZED_INLINE_LOCALS`] user locals. Longer lists transparently fall
    /// back to the heap buffer.
    pub fn with_inline_lists(mut self) -> NormalizedSimulator {
        self.inline_lists = true;
        self
    }

    /// Enable the contention-adaptive fast path: an uncontended operation whose
    /// CAS list has at most one entry runs generator, executor and wrap-up in a
    /// single un-checkpointed capsule around one evidence-carrying recoverable
    /// CAS ([`RcasSpace::cas_with_evidence`]) — no persisted CAS list, no
    /// pre-executor boundary. The runtime's [`ContentionMeasure`] demotes the
    /// operation to the full Algorithm 4 machinery when that CAS keeps losing
    /// (or when a generator produces a multi-CAS list, which the fast path
    /// never attempts).
    ///
    /// [`ContentionMeasure`]: capsules::ContentionMeasure
    pub fn with_adaptive(mut self, adaptive: bool) -> NormalizedSimulator {
        self.adaptive = adaptive;
        self
    }

    /// Whether the contention-adaptive fast path is enabled.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// The recoverable-CAS space used by this simulator.
    pub fn space(&self) -> &RcasSpace {
        &self.space
    }

    /// Whether the simulator issues hand-placed flushes.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// Run one normalized operation to completion (surviving crashes).
    pub fn run<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> O::Output {
        // Volatile cache of the CAS list: valid only while no crash intervened
        // (after a crash the list is reloaded from its persisted buffer).
        let mut cached: Option<CasList> = None;
        let entry = if self.adaptive && !rt.contention_mut().begin_op() {
            PC_FAST
        } else {
            PC_GEN
        };
        rt.run_op(entry, |rt| {
            match rt.pc() {
                PC_FAST => self.run_fast(rt, op, input, &mut cached),
                PC_GEN => {
                    let list = op.generator(&mut NormalizedCtx::new(rt, self), input);
                    self.persist_list_and_boundary(rt, &list);
                    cached = Some(list);
                    CapsuleStep::Continue
                }
                PC_EXEC => {
                    let list = if rt.crashed() || cached.is_none() {
                        self.load_list(rt)
                    } else {
                        cached.take().expect("volatile CAS-list cache disappeared")
                    };
                    let executed = self.cas_executor(rt, &list);
                    let wrap =
                        op.wrap_up(&mut NormalizedCtx::new(rt, self), input, &list, executed);
                    match wrap {
                        WrapUp::Done(out) => {
                            rt.set_local(L_OUT, out.to_word());
                            rt.finish_boundary(PC_DONE);
                            CapsuleStep::Done(out)
                        }
                        WrapUp::Restart => {
                            if self.inline_lists && rt.crashed() {
                                // The crashed path read the inline list slots that
                                // regenerating would overwrite (a write-after-read
                                // hazard in single-copy frames). Pay one extra
                                // boundary on this crash+contention path and let the
                                // generator capsule rebuild the list.
                                rt.boundary(PC_GEN);
                                CapsuleStep::Continue
                            } else {
                                // §7: the wrap-up and the next iteration's generator
                                // share this capsule — one boundary per iteration.
                                let list =
                                    op.generator(&mut NormalizedCtx::new(rt, self), input);
                                self.persist_list_and_boundary(rt, &list);
                                cached = Some(list);
                                CapsuleStep::Continue
                            }
                        }
                    }
                }
                PC_DONE => {
                    // The final boundary was published before the crash: the
                    // operation already completed; report its persisted result.
                    CapsuleStep::Done(O::Output::from_word(rt.local(L_OUT)))
                }
                pc => unreachable!("normalized simulator: unexpected pc {pc}"),
            }
        })
    }

    /// The contention-adaptive fast capsule ([`fast`](crate::fast)): the
    /// generator is its *propose* as long as it proposes at most one CAS, the
    /// wrap-up its *finish*. A multi-CAS list is handed to the full executor
    /// machinery through the pre-executor boundary; contention demotes to
    /// `PC_GEN`.
    fn run_fast<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
        cached: &mut Option<CasList>,
    ) -> CapsuleStep<O::Output> {
        let wrap_up = |rt: &mut CapsuleRuntime<'_, '_>, list: &CasList, executed| {
            match op.wrap_up(&mut NormalizedCtx::new(rt, self), input, list, executed) {
                WrapUp::Done(out) => {
                    rt.set_local(L_OUT, out.to_word());
                    rt.finish_boundary(PC_DONE);
                    Some(out)
                }
                WrapUp::Restart => None,
            }
        };
        let persist = |t: &PThread<'_>, addr| {
            if self.durable {
                t.persist(addr);
            }
        };
        // The generator's list behind the CAS in flight, kept for its wrap-up.
        let proposed = RefCell::new(CasList::new());
        fast_capsule(
            rt,
            &self.space,
            persist,
            PC_GEN,
            |rt| loop {
                let list = op.generator(&mut NormalizedCtx::new(rt, self), input);
                match list[..] {
                    [] => {
                        if let Some(out) = wrap_up(rt, &list, 0) {
                            return Proposal::Done(out);
                        }
                    }
                    [cas] => {
                        proposed.replace(list);
                        return Proposal::Cas(cas);
                    }
                    _ => {
                        self.persist_list_and_boundary(rt, &list);
                        *cached = Some(list);
                        return Proposal::Demoted;
                    }
                }
            },
            |rt, cas, attempt| {
                if attempt == Attempt::Recovered {
                    proposed.replace(vec![*cas]);
                }
                wrap_up(rt, &proposed.borrow(), attempt.took_effect() as usize)
            },
        )
    }

    /// Write the CAS list to a fresh persistent buffer, record it in the frame
    /// locals and emit the pre-executor boundary. A fresh buffer per iteration keeps
    /// the previous iteration's list intact, so re-running the capsule that produced
    /// this one (which must re-read the *old* list for its executor) stays safe.
    fn persist_list_and_boundary(&self, rt: &mut CapsuleRuntime<'_, '_>, list: &CasList) {
        if self.inline_lists && list.len() <= 1 {
            // -Opt path: the (single-entry or empty) list travels inside the frame,
            // so the boundary itself is the only persistence work.
            if let Some(c) = list.first() {
                rt.set_local_addr(L_INLINE, c.obj);
                rt.set_local(L_INLINE + 1, c.expected);
                rt.set_local(L_INLINE + 2, c.new);
                rt.set_local(L_INLINE + 3, c.aux);
            }
            rt.set_local_addr(L_BUF, PAddr::NULL);
            rt.set_local(L_LEN, list.len() as u64);
            rt.boundary(PC_EXEC);
            return;
        }
        let thread = rt.thread();
        let words = 1 + 4 * list.len().max(1) as u64;
        let buf = thread.alloc(words);
        thread.write(buf, list.len() as u64);
        for (i, c) in list.iter().enumerate() {
            let base = buf.offset(1 + 4 * i as u64);
            thread.write(base, c.obj.to_raw());
            thread.write(base.offset(1), c.expected);
            thread.write(base.offset(2), c.new);
            thread.write(base.offset(3), c.aux);
        }
        if self.durable {
            // Persist the buffer (it may span multiple lines) before the boundary
            // publishes its address.
            let mut w = 0;
            while w < words {
                thread.flush(buf.offset(w));
                w += pmem::LINE_WORDS;
            }
            thread.fence();
        }
        rt.set_local_addr(L_BUF, buf);
        rt.set_local(L_LEN, list.len() as u64);
        rt.boundary(PC_EXEC);
    }

    /// Reload the persisted CAS list (crash path of the executor capsule).
    fn load_list(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CasList {
        let buf = rt.local_addr(L_BUF);
        let len = rt.local(L_LEN) as usize;
        if buf.is_null() {
            // Inline list (the -Opt path).
            if len == 0 {
                return Vec::new();
            }
            return vec![CasDesc {
                obj: rt.local_addr(L_INLINE),
                expected: rt.local(L_INLINE + 1),
                new: rt.local(L_INLINE + 2),
                aux: rt.local(L_INLINE + 3),
            }];
        }
        let thread = rt.thread();
        let stored_len = thread.read(buf) as usize;
        debug_assert_eq!(stored_len, len, "persisted CAS-list header disagrees with frame");
        (0..len)
            .map(|i| {
                let base = buf.offset(1 + 4 * i as u64);
                CasDesc {
                    obj: PAddr::from_raw(thread.read(base)),
                    expected: thread.read(base.offset(1)),
                    new: thread.read(base.offset(2)),
                    aux: thread.read(base.offset(3)),
                }
            })
            .collect()
    }

    /// Algorithm 4's CAS-Executor: run the CASes in order until the first failure,
    /// resuming correctly after a crash via `checkRecovery`.
    fn cas_executor(&self, rt: &mut CapsuleRuntime<'_, '_>, list: &CasList) -> usize {
        let crashed = rt.crashed();
        for (i, c) in list.iter().enumerate() {
            let seq = rt.advance_seq();
            let mut done = false;
            if crashed {
                done = check_recovery(&self.space, rt.thread(), c.obj, seq);
            }
            if !done {
                if !self.space.cas(rt.thread(), c.obj, c.expected, c.new, seq) {
                    return i;
                }
                if self.durable {
                    rt.thread().persist(c.obj);
                }
            }
        }
        list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsules::BoundaryStyle;
    use pmem::{install_quiet_crash_hook, CrashPolicy, PMem};

    /// A normalized fetch-and-add: generator reads the counter and proposes one CAS;
    /// wrap-up returns the old value on success and restarts on contention.
    struct NormalizedCounter {
        x: PAddr,
    }

    impl NormalizedOp for NormalizedCounter {
        type Input = u64; // amount to add
        type Output = u64; // previous value

        fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, input: &u64) -> CasList {
            let v = ctx.read(self.x);
            vec![CasDesc::new(self.x, v, v + input).with_aux(v)]
        }

        fn wrap_up(
            &self,
            _ctx: &mut NormalizedCtx<'_, '_, '_>,
            _input: &u64,
            cas_list: &CasList,
            executed: usize,
        ) -> WrapUp<u64> {
            if executed == cas_list.len() {
                WrapUp::Done(cas_list[0].aux)
            } else {
                WrapUp::Restart
            }
        }
    }

    /// A normalized "set k flags" operation: the CAS list has several entries, which
    /// exercises the executor's resume-from-the-middle logic.
    struct SetFlags {
        flags: Vec<PAddr>,
    }

    impl NormalizedOp for SetFlags {
        type Input = ();
        type Output = u64; // number of flags this op set itself

        fn generator(&self, _ctx: &mut NormalizedCtx<'_, '_, '_>, _input: &()) -> CasList {
            self.flags
                .iter()
                .map(|&f| CasDesc::new(f, 0, 1))
                .collect()
        }

        fn wrap_up(
            &self,
            _ctx: &mut NormalizedCtx<'_, '_, '_>,
            _input: &(),
            _cas_list: &CasList,
            executed: usize,
        ) -> WrapUp<u64> {
            // Flags already set by someone else make the CAS fail; that is fine,
            // the operation's goal is achieved either way.
            WrapUp::Done(executed as u64)
        }
    }

    fn setup(threads: usize) -> (PMem, RcasSpace) {
        let mem = PMem::with_threads(threads);
        let space = RcasSpace::with_default_layout(&mem.thread(0), threads);
        (mem, space)
    }

    #[test]
    fn counter_accumulates_and_returns_old_values() {
        let (mem, space) = setup(1);
        let t = mem.thread(0);
        let x = space.create(&t, 0).addr();
        let sim = NormalizedSimulator::new(space, false);
        let op = NormalizedCounter { x };
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
        let mut olds = Vec::new();
        for _ in 0..10 {
            olds.push(sim.run(&mut rt, &op, &3));
        }
        assert_eq!(olds, (0..10).map(|i| i * 3).collect::<Vec<u64>>());
        assert_eq!(space.read(&t, x), 30);
    }

    #[test]
    fn one_boundary_per_uncontended_iteration() {
        let (mem, space) = setup(1);
        let t = mem.thread(0);
        let x = space.create(&t, 0).addr();
        let sim = NormalizedSimulator::new(space, false);
        let op = NormalizedCounter { x };
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
        rt.set_entry_boundary(false);
        let before = rt.metrics().boundaries;
        let _ = sim.run(&mut rt, &op, &1);
        let after = rt.metrics().boundaries;
        // One pre-executor boundary + the final (detectability) boundary.
        assert_eq!(after - before, 2);
    }

    #[test]
    fn counter_is_exact_under_crashes_single_thread() {
        install_quiet_crash_hook();
        let (mem, space) = setup(1);
        let t = mem.thread(0);
        let x = space.create(&t, 0).addr();
        let sim = NormalizedSimulator::new(space, false);
        let op = NormalizedCounter { x };
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
        t.set_crash_policy(CrashPolicy::Random { prob: 0.03, seed: 5 });
        let mut sum_of_olds = 0;
        for _ in 0..200 {
            sum_of_olds += sim.run(&mut rt, &op, &1);
        }
        t.disarm_crashes();
        assert_eq!(space.read(&t, x), 200, "each add applied exactly once");
        // Old values 0..=199 must each be observed exactly once.
        assert_eq!(sum_of_olds, (0..200).sum::<u64>());
    }

    #[test]
    fn counter_is_exact_under_crashes_multi_thread() {
        install_quiet_crash_hook();
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 120;
        let (mem, space) = setup(THREADS);
        let t0 = mem.thread(0);
        let x = space.create(&t0, 0).addr();
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let mem = &mem;
                let space = &space;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let sim = NormalizedSimulator::new(*space, false);
                    let op = NormalizedCounter { x };
                    let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
                    // Arm crash injection only once the runtime's frame exists (a
                    // crash during set-up is the enclosing program's problem, not
                    // the operation's).
                    t.set_crash_policy(CrashPolicy::Random {
                        prob: 0.01,
                        seed: 900 + pid as u64,
                    });
                    for _ in 0..PER_THREAD {
                        let _ = sim.run(&mut rt, &op, &1);
                    }
                    t.disarm_crashes();
                });
            }
        });
        assert_eq!(
            space.read(&mem.thread(0), x),
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        // dfck-style enumeration for the normalized simulator: every crash point
        // of a 3-add run (count from Stats), single and nested [k, 0] schedules.
        // The nested replays deterministically exercise the recovery-interrupted
        // path of `CapsuleRuntime::run_op` under Algorithm 4.
        install_quiet_crash_hook();
        let run = |plan: Option<pmem::CrashPlan>| -> (u64, u64, u64, u64) {
            let (mem, space) = setup(1);
            let t = mem.thread(0);
            let x = space.create(&t, 0).addr();
            let sim = NormalizedSimulator::new(space, false);
            let op = NormalizedCounter { x };
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            let mut sum_of_olds = 0;
            for _ in 0..3 {
                sum_of_olds += sim.run(&mut rt, &op, &1);
            }
            let points = t.stats().crash_points;
            t.disarm_crashes();
            let m = rt.metrics();
            (space.read(&t, x) * 10 + sum_of_olds, points, m.recoveries, m.recovery_crashes)
        };
        let (history, n, _, _) = run(None);
        assert_eq!(history, 33, "3 adds, old values 0+1+2");
        assert!(n > 0);
        let mut nested_recovery_crashes = 0;
        for k in 0..n {
            let (h, _, _, _) = run(Some(pmem::CrashPlan::once(k)));
            assert_eq!(h, 33, "crash at point {k} changed the history");
            let (h, _, _, rc) = run(Some(pmem::CrashPlan::new(vec![k, 0])));
            assert_eq!(h, 33, "nested crash at point {k} changed the history");
            nested_recovery_crashes += rc;
        }
        assert!(
            nested_recovery_crashes > 0,
            "the nested sweep must interrupt at least one recovery"
        );
    }

    #[test]
    fn multi_cas_list_executes_each_entry_once_despite_crashes() {
        install_quiet_crash_hook();
        let (mem, space) = setup(1);
        let t = mem.thread(0);
        let flags: Vec<PAddr> = (0..6).map(|_| space.create(&t, 0).addr()).collect();
        let sim = NormalizedSimulator::new(space, false);
        let op = SetFlags {
            flags: flags.clone(),
        };
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
        t.set_crash_policy(CrashPolicy::Random { prob: 0.08, seed: 21 });
        let set_by_op = sim.run(&mut rt, &op, &());
        t.disarm_crashes();
        assert_eq!(set_by_op, 6, "no other thread competed, all CASes must succeed");
        for f in &flags {
            assert_eq!(space.read(&t, *f), 1);
        }
    }

    #[test]
    fn durable_mode_flushes_list_and_targets() {
        let (mem, space) = setup(1);
        let t = mem.thread(0);
        let x = space.create(&t, 0).addr();
        let op = NormalizedCounter { x };
        let run_with = |durable: bool| {
            let sim = NormalizedSimulator::new(space, durable);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
            rt.set_entry_boundary(false);
            let before = t.stats();
            let _ = sim.run(&mut rt, &op, &1);
            t.stats().since(&before)
        };
        let plain = run_with(false);
        let durable = run_with(true);
        assert!(durable.flushes > plain.flushes);
        assert!(durable.fences > plain.fences);
    }

    #[test]
    fn persist_result_round_trips() {
        assert_eq!(<Option<u64>>::from_word(Some(7u64).to_word()), Some(7));
        assert_eq!(<Option<u64>>::from_word(None::<u64>.to_word()), None);
        assert_eq!(u64::from_word(42u64.to_word()), 42);
        assert!(bool::from_word(true.to_word()));
        assert!(!bool::from_word(false.to_word()));
        let () = <()>::from_word(().to_word());
    }
}
