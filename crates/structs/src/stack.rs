//! The Treiber stack (IBM TR 1986) on simulated memory: its plain shell, and
//! its two operations declared once for both detectable constructions.
//!
//! [`TreiberStack`] is the untransformed baseline of the structure family,
//! exactly like [`queues::MsQueue`] is for the queues: plain CASes, no
//! capsules, no recoverable CAS, no flushes. Running its operations through a
//! thread handle with [`pmem::ThreadOptions`]`{ izraelevitz: true }` yields the
//! Izraelevitz-transformed stack — durably linearizable by construction (a
//! flush after every shared access) but **not** detectable: after a crash the
//! process cannot tell whether its in-flight push/pop took effect.
//!
//! [`CapsuleStack`] is the detectable stack, generic over its simulator: its
//! instances [`GeneralStack`] (§6) and [`NormalizedStack`] (§7) are the
//! stack-shaped siblings of [`queues::GeneralQueue`] and
//! [`queues::NormalizedQueue`]. Both operations are declared once: the
//! generator observes `top` and proposes the single CAS (a push first builds
//! its node — private writes, safe to repeat); the wrap-up reports, a pop's
//! value riding the CAS's `aux` word as the normalized dequeue's does, and an
//! empty stack's empty CAS list answers `None`. Uncontended, an operation runs
//! as one fast capsule under either simulator (on by default,
//! [`with_adaptive`](GeneralStack::with_adaptive)). The stack is the sharpest
//! detectability probe of the family: *every* crash point is adjacent to the
//! linearization point.

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{
    CasDesc, CasFrame, CasList, CasReadSimulator, NormalizedCtx, NormalizedOp, NormalizedSimulator,
    SharedMem, Simulator, WrapUp,
};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{
    adaptive_builders, apply_stack, capsule_handles, drain_by_pops, general_simulator,
    normalized_simulator, Capsuled, Drain, StructHandle, StructOp,
};
use crate::node::{alloc_node, next_addr, value_addr, NODE_WORDS};

/// Count the elements reachable from the `top` word (diagnostic; not
/// linearizable with respect to concurrent operations). One walk for every
/// construction: `m` says how the construction reads `top`; next words are
/// plain everywhere.
pub(crate) fn len_of<M: SharedMem>(m: &M, top: PAddr) -> usize {
    let mut count = 0;
    let mut node = PAddr::from_raw(m.read(top));
    while !node.is_null() {
        count += 1;
        node = PAddr::from_raw(m.read_plain(next_addr(node)));
    }
    count
}

/// The shared, persistent part of the stack: the `top` pointer word.
#[derive(Clone, Copy, Debug)]
pub struct TreiberStack {
    top: PAddr,
}

impl TreiberStack {
    /// Create an empty stack.
    pub fn new(thread: &PThread<'_>) -> TreiberStack {
        let top = thread.alloc(1);
        thread.write(top, 0);
        TreiberStack { top }
    }

    /// Create this thread's operation handle.
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> TreiberStackHandle<'q, 't, 'm> {
        TreiberStackHandle {
            stack: self,
            thread,
        }
    }

    /// Count the elements currently reachable from the top (diagnostic; not
    /// linearizable with respect to concurrent operations).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(thread, self.top)
    }

    /// Whether the stack is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self, thread: &PThread<'_>) -> bool {
        self.len(thread) == 0
    }
}

/// Per-thread handle for the plain Treiber stack.
#[derive(Debug)]
pub struct TreiberStackHandle<'q, 't, 'm> {
    stack: &'q TreiberStack,
    thread: &'t PThread<'m>,
}

impl TreiberStackHandle<'_, '_, '_> {
    /// Push `value` onto the stack.
    pub fn push(&mut self, value: u64) {
        let t = self.thread;
        let node = alloc_node(t, value);
        loop {
            let top = t.read(self.stack.top);
            t.write(next_addr(node), top);
            if t.cas(self.stack.top, top, node.to_raw()) {
                return;
            }
        }
    }

    /// Pop the top of the stack.
    pub fn pop(&mut self) -> Option<u64> {
        let t = self.thread;
        loop {
            let top = PAddr::from_raw(t.read(self.stack.top));
            if top.is_null() {
                return None;
            }
            let next = t.read(next_addr(top));
            let value = t.read(value_addr(top));
            if t.cas(self.stack.top, top.to_raw(), next) {
                return Some(value);
            }
        }
    }
}

impl StructHandle for TreiberStackHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        apply_stack(self, op, Self::push, Self::pop)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        drain_by_pops(max, || self.pop())
    }
}

// The §6 frame of a stack handle (user locals).
const L_VAL: usize = 0; // push: the value (entry); pop: the popped value (the CAS's aux)
const L_NODE: usize = 1; // the CAS's new top
const L_TOP: usize = 2; // the CAS's expected top
const GENERAL_LOCALS: usize = 3;

/// The capsule-transformed Treiber stack (module docs), generic over the
/// simulator that runs its operations.
#[derive(Clone, Copy, Debug)]
pub struct CapsuleStack<S> {
    /// Recoverable-CAS word holding the top node address.
    top: PAddr,
    pub(crate) sim: S,
}

/// The "General" stack: placed by the CAS-Read simulator of §6.
pub type GeneralStack = CapsuleStack<CasReadSimulator>;
/// The "Normalized" stack: run by the Persistent Normalized Simulator of §7.
pub type NormalizedStack = CapsuleStack<NormalizedSimulator>;

impl GeneralStack {
    /// Create an empty stack for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline (`Durability::Manual` semantics: the
    /// recoverable-CAS layer adopts the durable-announcement discipline of
    /// DESIGN.md §7, and the stack persists nodes before publishing them).
    pub fn new(thread: &PThread<'_>, nprocs: usize, manual: bool, style: BoundaryStyle) -> Self {
        let space = RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT).with_durability(manual);
        Self::create(thread, general_simulator(space, manual, style, true))
    }
}

impl NormalizedStack {
    /// Create an empty stack for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline; `optimised` the compact-frame + inline
    /// CAS-list configuration (the `-Opt` style of the queues).
    pub fn new(thread: &PThread<'_>, nprocs: usize, manual: bool, optimised: bool) -> Self {
        let space = RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT).with_durability(manual);
        Self::create(thread, normalized_simulator(space, manual, optimised, true))
    }
}

capsule_handles!(GeneralStack, GeneralStackHandle);
capsule_handles!(NormalizedStack, NormalizedStackHandle);
adaptive_builders!(GeneralStack);
adaptive_builders!(NormalizedStack);

impl<S: Simulator> CapsuleStack<S> {
    /// An empty stack run by `sim`.
    fn create(thread: &PThread<'_>, sim: S) -> Self {
        let (top, m) = (thread.alloc(1), sim.mem(thread));
        m.init_word(top, 0);
        m.flush_line(top);
        m.fence();
        CapsuleStack { top, sim }
    }

    /// Count the elements reachable from the top (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(&self.sim.mem(thread), self.top)
    }
}

/// One stack operation (`Push` or `Pop`) of a [`CapsuleStack`], declared once.
pub(crate) struct StackOp<'s, S>(pub(crate) &'s CapsuleStack<S>, pub(crate) StructOp);

/// First pcs of the operations in a §6 frame.
const PUSH: u32 = 0;
const POP: u32 = 10;

impl<S> NormalizedOp for StackOp<'_, S> {
    type Input = ();
    type Output = Option<u64>;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _: &()) -> CasList {
        let (top, m) = (self.0.top, ctx.mem());
        match self.1 {
            StructOp::Push(value) => {
                let node = m.alloc(NODE_WORDS);
                m.write_plain(value_addr(node), value);
                let seen = m.read(top);
                m.write_plain(next_addr(node), seen);
                ctx.persist(node);
                vec![CasDesc::new(top, seen, node.to_raw())]
            }
            StructOp::Pop => {
                let seen = PAddr::from_raw(m.read(top));
                if seen.is_null() {
                    return Vec::new();
                }
                let next = m.read_plain(next_addr(seen));
                let value = m.read_plain(value_addr(seen));
                vec![CasDesc::new(top, seen.to_raw(), next).with_aux(value)]
            }
            op => panic!("stack handle cannot apply keyed operation {op:?}"),
        }
    }

    fn wrap_up(
        &self,
        _: &mut NormalizedCtx<'_, '_, '_>,
        _: &(),
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<Option<u64>> {
        match cas_list.first() {
            None => WrapUp::Done(None),
            Some(_) if executed == 0 => WrapUp::Restart,
            Some(cas) => WrapUp::Done((self.1 == StructOp::Pop).then_some(cas.aux)),
        }
    }

    /// Both keep the CAS's expected and new top, a pop also its value;
    /// `top` itself is rebuilt.
    fn frame(&self) -> CasFrame {
        let (pc, entry, aux, out) = match self.1 {
            StructOp::Push(value) => (PUSH, Some((L_VAL, value)), None, 0),
            _ => (POP, None, Some(L_VAL), L_VAL),
        };
        let (expected, new) = (Some(L_TOP), Some(L_NODE));
        CasFrame {
            pc,
            entry,
            obj: None,
            expected,
            new,
            aux,
            out,
        }
    }

    fn rebuild(&self, mut kept: CasDesc) -> CasDesc {
        kept.obj = self.0.top;
        kept
    }
}

impl<S: Simulator> Capsuled for CapsuleStack<S> {
    const LOCALS: usize = GENERAL_LOCALS;
    type Sim = S;
    fn sim(&self) -> &S {
        &self.sim
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        self.sim.run(rt, &StackOp(self, op), &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem, ThreadOptions};
    use std::collections::HashSet;

    #[test]
    fn lifo_order_single_thread() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = TreiberStack::new(&t);
        let mut h = s.handle(&t);
        assert_eq!(h.pop(), None);
        for i in 1..=100 {
            h.push(i);
        }
        assert_eq!(s.len(&t), 100);
        for i in (1..=100).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
        assert!(s.is_empty(&t));
    }

    #[test]
    fn concurrent_push_pop_preserves_elements() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;
        let mem = PMem::with_threads(THREADS);
        let s = TreiberStack::new(&mem.thread(0));
        let results: Vec<Vec<u64>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let s = &s;
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = s.handle(&t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.push((pid as u64) << 32 | i);
                            if let Some(v) = h.pop() {
                                popped.push(v);
                            }
                        }
                        popped
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "an element was popped twice");
    }

    #[test]
    fn izraelevitz_option_makes_contents_durable() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let s = TreiberStack::new(&t);
        {
            let mut h = s.handle(&t);
            for i in 1..=10 {
                h.push(i);
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        for i in (1..=10).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn struct_handle_face_encodes_results_and_drains_lifo() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = TreiberStack::new(&t);
        let mut h = s.handle(&t);
        assert_eq!(h.apply(StructOp::Push(5)), None);
        assert_eq!(h.apply(StructOp::Push(6)), None);
        assert_eq!(h.apply(StructOp::Pop), Some(6));
        h.push(7);
        let d = h.drain_up_to(8);
        assert_eq!((d.items, d.truncated), (vec![7, 5], false));
        assert_eq!(h.drain_up_to(8).items, Vec::<u64>::new());
        // A cap below the element count reports truncation.
        for v in [1, 2, 3] {
            h.push(v);
        }
        let d = h.drain_up_to(2);
        assert_eq!((d.items, d.truncated), (vec![3, 2], true));
    }
}
