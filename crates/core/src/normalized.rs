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

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure};
use pmem::{PAddr, PThread};
use rcas::{check_recovery, RcasSpace};

use crate::cas_read::CasFrame;
use crate::fast::fast_op;
use crate::mem::{RcasMem, SharedMem};
use crate::Simulator;

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

    /// The §6 placement's encoding: which of an operation's two done pcs
    /// reports the result, and the word, if any, that still needs a frame slot.
    fn to_done(self) -> (u32, Option<u64>) {
        (0, Some(self.to_word()))
    }
    /// Inverse of [`to_done`](Self::to_done), given the slot's word.
    fn from_done(_done: u32, kept: u64) -> Self {
        Self::from_word(kept)
    }
}

impl PersistResult for () {
    fn to_word(self) -> u64 {
        0
    }
    fn from_word(_: u64) -> Self {}
    fn to_done(self) -> (u32, Option<u64>) {
        (0, None)
    }
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
    fn to_done(self) -> (u32, Option<u64>) {
        (self as u32, None)
    }
    fn from_done(done: u32, _: u64) -> Self {
        done == 1
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
    fn to_done(self) -> (u32, Option<u64>) {
        (self.is_some() as u32, self)
    }
    fn from_done(done: u32, kept: u64) -> Self {
        (done == 1).then_some(kept)
    }
}

/// A simulator's hand-placed flush discipline as the parts of a normalized
/// operation see it.
#[derive(Clone, Copy)]
pub(crate) struct Discipline<'s> {
    pub(crate) space: &'s RcasSpace,
    pub(crate) durable: bool,
    /// The §6 `-Opt` style: a CAS's lock prefix orders a pending flush just
    /// like a fence would (Px86), so a persist whose next publication is a CAS
    /// — a CAS target's, a fast generator's — leaves its fence out.
    pub(crate) lock_orders: bool,
}

/// What publishes the data a generator or wrap-up persists next, which
/// decides whether [`NormalizedCtx::persist`] fences itself.
#[derive(Clone, Copy)]
pub(crate) enum Next {
    /// The fast capsule's evidence-carrying CAS. A durable space flushes and
    /// fences the announcement right before it, and that fence orders the
    /// generator's flushes as well; otherwise only the `-Opt` lock prefix
    /// does.
    Cas,
    /// The slow path's boundary. A General one fences its slot copies before
    /// its control store, and is told to fence there even when no slot
    /// changed ([`CapsuleRuntime::fence_at_next_boundary`]); a Compact one
    /// fences only after its control store, so the persist keeps its fence.
    Boundary,
    /// Nothing the placement fences for: a wrap-up's persists (the operation
    /// may return right after them) and a read-only operation's.
    Own,
}

impl<'s> Discipline<'s> {
    /// The context of a generator or wrap-up whose persists `next` publishes.
    pub(crate) fn ctx<'a, 't, 'm>(
        &'a self,
        rt: &'a mut CapsuleRuntime<'t, 'm>,
        next: Next,
    ) -> NormalizedCtx<'a, 't, 'm> {
        let ordered = match next {
            Next::Cas => self.space.durable() || self.lock_orders,
            Next::Boundary => rt.frame().style() == BoundaryStyle::General,
            Next::Own => false,
        };
        NormalizedCtx {
            rt,
            d: *self,
            ordered_by: ordered.then_some(next),
        }
    }

    /// Flush a CAS target after its CAS took effect, and fence unless the
    /// `-Opt` style leaves that to the next CAS's lock prefix.
    pub(crate) fn persist_target(&self, thread: &PThread<'_>, addr: PAddr) {
        if self.durable {
            thread.flush(addr);
            if !self.lock_orders {
                thread.fence();
            }
        }
    }

    /// Fence the flush [`persist_target`](Self::persist_target) left unfenced:
    /// an operation that returns with no boundary after its CAS must still be
    /// durable when it returns.
    pub(crate) fn fence_dropped(&self, thread: &PThread<'_>) {
        if self.durable && self.lock_orders {
            thread.fence();
        }
    }

    /// Run a [`read_only`](NormalizedOp::read_only) operation — generator,
    /// then wrap-up, until the wrap-up answers — outside the capsule frame
    /// ([`CapsuleRuntime::run_read`]), the same under both simulators.
    pub(crate) fn run_read<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> O::Output {
        rt.run_read(|rt| loop {
            let list = op.generator(&mut self.ctx(rt, Next::Own), input);
            assert!(list.is_empty(), "a read-only operation proposed a CAS");
            if let WrapUp::Done(out) = op.wrap_up(&mut self.ctx(rt, Next::Own), input, &list, 0) {
                return out;
            }
        })
    }
}

/// The environment handed to generators and wrap-ups: shared-memory access plus the
/// helping CAS for locations the executor also updates. [`mem`](Self::mem) is its
/// [`SharedMem`] face, so parallelizable code written once over that face runs
/// here unchanged.
pub struct NormalizedCtx<'a, 't, 'm> {
    rt: &'a mut CapsuleRuntime<'t, 'm>,
    /// The placement's discipline, which [`persist`](Self::persist) follows.
    d: Discipline<'a>,
    /// What fences a persist in its place (`None`: the persist itself).
    ordered_by: Option<Next>,
}

impl<'a, 't, 'm> NormalizedCtx<'a, 't, 'm> {
    /// The [`SharedMem`] face of this method's memory accesses: reads, private
    /// writes, allocation, and the *helping* CAS (anonymous, so an executor's
    /// notification on the same word survives — §7) with its flushes.
    pub fn mem(&self) -> RcasMem<'a, 't, 'm> {
        RcasMem::new(self.d.space, self.rt.thread(), self.d.durable)
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

    /// Flush a line when the simulator places flushes by hand (a generator
    /// persisting the node its CAS is about to publish), and fence it unless
    /// the placement already fences before that publication: the fast
    /// capsule's durable announcement before its CAS, a General boundary
    /// before its control store. A wrap-up's persists always fence.
    pub fn persist(&mut self, addr: PAddr) {
        if self.d.durable {
            let thread = self.rt.thread();
            thread.flush(addr);
            match self.ordered_by {
                None => thread.fence(),
                Some(Next::Boundary) => self.rt.fence_at_next_boundary(),
                Some(_) => {}
            }
        }
    }
}

/// A normalized lock-free operation, in the three-part form of Timnat & Petrank.
/// Declared once, it runs under Algorithm 4 ([`NormalizedSimulator`]) and in
/// §6 CAS-Read capsules ([`CasReadSimulator`](crate::CasReadSimulator)).
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

    /// Where the §6 placement keeps this operation in a capsule frame; the
    /// default keeps the whole CAS in user locals 0–3 and a result word in 4.
    fn frame(&self) -> CasFrame {
        let (obj, expected, new, aux) = (Some(0), Some(1), Some(2), Some(3));
        CasFrame {
            obj,
            expected,
            new,
            aux,
            out: 4,
            ..CasFrame::default()
        }
    }

    /// The CAS the §6 placement's second capsule issues, from the fields
    /// [`frame`](Self::frame) keeps (the others arrive as 0).
    fn rebuild(&self, kept: CasDesc) -> CasDesc {
        kept
    }

    /// Whether this operation only reads: its generator never proposes a CAS
    /// and its answer is a function of shared state alone. Both simulators
    /// run such an operation with no boundary and no frame
    /// ([`CapsuleRuntime::run_read`]): nothing durable names it, so running
    /// it again is its recovery — and nothing can detect it after it returned.
    fn read_only(&self) -> bool {
        false
    }
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

    /// The contention policy handles start with (sensitized sweeps lower the
    /// trip threshold so the fast→slow demotion is deterministically reached).
    pub fn with_contention(mut self, policy: ContentionMeasure) -> NormalizedSimulator {
        self.contention = policy;
        self
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

    /// No `-Opt` fence dropping: every CAS target's persist fences.
    fn discipline(&self) -> Discipline<'_> {
        Discipline {
            space: &self.space,
            durable: self.durable,
            lock_orders: false,
        }
    }

    /// Run one normalized operation to completion (surviving crashes).
    pub fn run<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> O::Output {
        let d = self.discipline();
        if op.read_only() {
            return d.run_read(rt, op, input);
        }
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
                // Contention demotes to `PC_GEN`; a multi-CAS list goes to the
                // executor through the pre-executor boundary.
                PC_FAST => fast_op(
                    rt,
                    d,
                    PC_GEN,
                    op,
                    input,
                    |rt, out| {
                        rt.set_local(L_OUT, out.to_word());
                        rt.finish_boundary(PC_DONE);
                    },
                    |rt, list| {
                        self.persist_list_and_boundary(rt, &list);
                        cached = Some(list);
                    },
                ),
                PC_GEN => {
                    let list = op.generator(&mut d.ctx(rt, Next::Boundary), input);
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
                    match op.wrap_up(&mut d.ctx(rt, Next::Own), input, &list, executed) {
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
                                let list = op.generator(&mut d.ctx(rt, Next::Boundary), input);
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
        debug_assert_eq!(
            stored_len, len,
            "persisted CAS-list header disagrees with frame"
        );
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

impl Simulator for NormalizedSimulator {
    /// Enough for inline CAS lists, and for heap-buffered ones.
    const LOCALS: Option<usize> = Some(NORMALIZED_INLINE_LOCALS);
    fn run<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> O::Output {
        NormalizedSimulator::run(self, rt, op, input)
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
    use crate::CasReadSimulator;
    use capsules::BoundaryStyle;
    use pmem::{install_quiet_crash_hook, CrashPolicy, PMem};
    use std::cell::Cell;

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
            self.flags.iter().map(|&f| CasDesc::new(f, 0, 1)).collect()
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
        t.set_crash_policy(CrashPolicy::Random {
            prob: 0.03,
            seed: 5,
        });
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
        assert_eq!(space.read(&mem.thread(0), x), THREADS as u64 * PER_THREAD);
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
            (
                space.read(&t, x) * 10 + sum_of_olds,
                points,
                m.recoveries,
                m.recovery_crashes,
            )
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
        t.set_crash_policy(CrashPolicy::Random {
            prob: 0.08,
            seed: 21,
        });
        let set_by_op = sim.run(&mut rt, &op, &());
        t.disarm_crashes();
        assert_eq!(
            set_by_op, 6,
            "no other thread competed, all CASes must succeed"
        );
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

    /// An increment whose generator first persists a record of its own, the
    /// way a push persists its node. `fenced` keeps the fences that persist
    /// issued; with a `bare` frame the §6 placement saves no field at the
    /// generator's boundary (`rebuild` derives the CAS), and `published`
    /// keeps the fences from the persist to the CAS-Read capsule's start.
    struct PersistThenAdd<'t, 'm> {
        t: &'t PThread<'m>,
        x: PAddr,
        bare: bool,
        fenced: Cell<u64>,
        persisted_at: Cell<u64>,
        published: Cell<u64>,
    }

    impl NormalizedOp for PersistThenAdd<'_, '_> {
        type Input = ();
        type Output = ();

        fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _: &()) -> CasList {
            let record = self.t.alloc(pmem::LINE_WORDS);
            self.t.write(record, 1);
            let before = self.t.stats().fences;
            ctx.persist(record);
            self.persisted_at.set(self.t.stats().fences);
            self.fenced.set(self.persisted_at.get() - before);
            let v = ctx.read(self.x);
            vec![CasDesc::new(self.x, v, v + 1)]
        }

        fn wrap_up(
            &self,
            _: &mut NormalizedCtx<'_, '_, '_>,
            _: &(),
            _: &CasList,
            executed: usize,
        ) -> WrapUp<()> {
            match executed {
                1 => WrapUp::Done(()),
                _ => WrapUp::Restart,
            }
        }

        fn frame(&self) -> CasFrame {
            match self.bare {
                true => CasFrame::default(),
                // The default frame, which keeps the whole CAS.
                false => NormalizedCounter { x: self.x }.frame(),
            }
        }

        fn rebuild(&self, kept: CasDesc) -> CasDesc {
            self.published.set(self.t.stats().fences - self.persisted_at.get());
            match self.bare {
                // The one add from 0 each test machine runs.
                true => CasDesc::new(self.x, 0, 1),
                false => kept,
            }
        }
    }

    /// One operation of `sim` (built over a space whose announcement is
    /// durable iff `durable_space`) on a `style` frame: the fences of the
    /// generator's persist, and those between it and the CAS-Read capsule.
    fn generator_fences<S: Simulator>(
        sim: impl Fn(RcasSpace) -> S,
        durable_space: bool,
        style: BoundaryStyle,
        bare: bool,
    ) -> (u64, u64) {
        use pmem::{MemConfig, Mode};
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1).with_durability(durable_space);
        let x = space.create(&t, 0).addr();
        let sim = sim(space);
        let mut rt = CapsuleRuntime::new(&t, style, S::LOCALS.unwrap_or(5));
        let op = PersistThenAdd {
            t: &t,
            x,
            bare,
            fenced: Cell::new(0),
            persisted_at: Cell::new(0),
            published: Cell::new(0),
        };
        sim.run(&mut rt, &op, &());
        assert_eq!(space.read(&t, x), 1);
        (op.fenced.get(), op.published.get())
    }

    fn cas_read(adaptive: bool, style: BoundaryStyle) -> impl Fn(RcasSpace) -> CasReadSimulator {
        move |space| {
            let sim = CasReadSimulator::new(space).with_durable(true);
            sim.with_style(style).with_adaptive(adaptive)
        }
    }

    fn normalized(
        adaptive: bool,
        style: BoundaryStyle,
    ) -> impl Fn(RcasSpace) -> NormalizedSimulator {
        move |space| {
            let sim = NormalizedSimulator::new(space, true).with_inline_lists();
            sim.with_style(style).with_adaptive(adaptive)
        }
    }

    /// The fast capsule's announcement flush + fence orders a generator's
    /// flush before the CAS only when the space is durable; without it (and
    /// outside the `-Opt` style, whose lock-prefix rule is its own) the
    /// generator's persist keeps its fence.
    #[test]
    fn a_fast_generator_leaves_its_fence_to_a_durable_announcement_only() {
        let general = BoundaryStyle::General;
        for durable_space in [true, false] {
            let want = !durable_space as u64;
            let got = generator_fences(cas_read(true, general), durable_space, general, false);
            assert_eq!(got.0, want, "§6 fast, durable space {durable_space}");
            let got = generator_fences(normalized(true, general), durable_space, general, false);
            assert_eq!(got.0, want, "§7 fast, durable space {durable_space}");
        }
        let compact = BoundaryStyle::Compact;
        let got = generator_fences(normalized(true, compact), true, compact, false);
        assert_eq!(got.0, 0, "§7 fast on a Compact frame, durable space");
    }

    /// A slow-path generator before a General boundary leaves its fence to
    /// the boundary, which fences before its control store even when it saves
    /// no slot: one fence there, one after the control store.
    #[test]
    fn a_general_boundary_that_saves_no_slot_fences_for_a_skipped_generator_fence() {
        let general = BoundaryStyle::General;
        for bare in [true, false] {
            let (fenced, published) =
                generator_fences(cas_read(false, general), true, general, bare);
            assert_eq!((fenced, published), (0, 2), "bare frame {bare}");
        }
        let (fenced, _) = generator_fences(normalized(false, general), true, general, false);
        assert_eq!(fenced, 0, "§7 slow on a General frame");
    }

    /// A Compact boundary fences only after its control store (DESIGN.md
    /// §13), so a slow-path generator before one keeps its fence.
    #[test]
    fn a_compact_slow_path_fences_its_generator_persist() {
        let compact = BoundaryStyle::Compact;
        let (fenced, published) = generator_fences(cas_read(false, compact), true, compact, true);
        assert_eq!((fenced, published), (1, 1), "§6 slow, bare Compact frame");
        let (fenced, _) = generator_fences(normalized(false, compact), true, compact, false);
        assert_eq!(fenced, 1, "§7 slow, inline list on a Compact frame");
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
