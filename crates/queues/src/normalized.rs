//! The Michael–Scott queue's two operations declared once, and
//! [`CapsuleQueue`], the detectable queue generic over the simulator that runs
//! them: [`GeneralQueue`] (§6) and [`NormalizedQueue`] (§7), the queue-shaped
//! siblings of `structs`' stacks.
//!
//! The one CAS of an operation — the link of a new node behind the last one,
//! or the head swing past the first — is the only shared write that needs
//! detecting. The tail is advanced only by helping code in the generator and
//! the wrap-up (parallelizable methods), so it is a plain word updated with
//! plain CASes (§7). That makes the §6 placement as mechanical as for every
//! other one-CAS operation: the generator in a read-only capsule, the CAS and
//! the wrap-up in a CAS-Read capsule. Uncontended, an operation runs as one
//! fast capsule under either simulator (on by default,
//! [`with_adaptive`](GeneralQueue::with_adaptive)).

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{
    adaptive_builders, capsule_handles, general_simulator, normalized_simulator, Capsuled, CasDesc,
    CasFrame, CasList, CasReadSimulator, Handle, NormalizedCtx, NormalizedOp, NormalizedSimulator,
    SharedMem, Simulator, StructHandle, StructOp, WrapUp,
};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{Durability, QueueHandle};
use crate::node::{chain_len, next_addr, value_addr, NODE_WORDS};

// The §6 frame of a queue handle (user locals).
const L_VAL: usize = 0; // enqueue: the value (entry); dequeue: the value (the CAS's aux)
const L_NEW: usize = 1; // the CAS's new word: the enqueued node, or the new head
const L_SEEN: usize = 2; // enqueue: the last node (the CAS's aux); dequeue: the expected head
const GENERAL_LOCALS: usize = 3;

/// First pcs of the operations in a §6 frame.
const ENQ: u32 = 0;
const DEQ: u32 = 10;

/// The capsule-transformed Michael–Scott queue (module docs), generic over
/// the simulator that runs its operations.
#[derive(Clone, Copy, Debug)]
pub struct CapsuleQueue<S> {
    /// Recoverable-CAS word holding the head node address.
    head: PAddr,
    /// Plain word holding the tail node address (only helping code CASes it).
    tail: PAddr,
    sim: S,
}

/// The "General" queue: placed by the CAS-Read simulator of §6.
pub type GeneralQueue = CapsuleQueue<CasReadSimulator>;
/// The "Normalized" queue: run by the Persistent Normalized Simulator of §7.
pub type NormalizedQueue = CapsuleQueue<NormalizedSimulator>;

impl GeneralQueue {
    /// Create an empty queue for `nprocs` processes; `style` selects the
    /// General (`BoundaryStyle::General`) or General-Opt
    /// (`BoundaryStyle::Compact`) configuration.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        durability: Durability,
        style: BoundaryStyle,
    ) -> GeneralQueue {
        let sim = |space| general_simulator(space, durability.manual(), style, true);
        Self::create(thread, nprocs, durability, sim)
    }
}

impl NormalizedQueue {
    /// Create an empty queue for `nprocs` processes. `optimised` selects the
    /// Normalized-Opt configuration (compact frames + inline CAS lists).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        durability: Durability,
        optimised: bool,
    ) -> NormalizedQueue {
        let sim = |space| normalized_simulator(space, durability.manual(), optimised, true);
        Self::create(thread, nprocs, durability, sim)
    }
}

capsule_handles!(GeneralQueue, GeneralQueueHandle);
capsule_handles!(NormalizedQueue, NormalizedQueueHandle);
adaptive_builders!(GeneralQueue);
adaptive_builders!(NormalizedQueue);

impl<S: Simulator> CapsuleQueue<S> {
    /// An empty queue (a sentinel node) for `nprocs` processes, run by the
    /// simulator `sim` makes of its recoverable-CAS space. Under manual
    /// durability that space follows the flush discipline itself: persisting
    /// a CAS target afterwards is not enough once full-system crashes can roll
    /// back unflushed announcement state.
    fn create(
        thread: &PThread<'_>,
        nprocs: usize,
        durability: Durability,
        sim: impl FnOnce(RcasSpace) -> S,
    ) -> Self {
        let space = RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT);
        let space = space.with_durability(durability.manual());
        let sentinel = thread.alloc(NODE_WORDS);
        space.init_word(thread, next_addr(sentinel), 0);
        let (head, tail) = (thread.alloc(1), thread.alloc(1));
        space.init_word(thread, head, sentinel.to_raw());
        thread.write(tail, sentinel.to_raw());
        if durability.manual() {
            for word in [sentinel, head, tail] {
                thread.persist(word);
            }
        }
        let sim = sim(space);
        CapsuleQueue { head, tail, sim }
    }

    /// The recoverable-CAS space used by this queue.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Whether this is the hand-optimised (`-Opt`) configuration.
    pub fn optimised(&self) -> bool {
        self.sim.style() == BoundaryStyle::Compact
    }

    /// Count elements reachable from the head (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        chain_len(&self.sim.mem(thread), self.head)
    }

    /// Whether the queue is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self, thread: &PThread<'_>) -> bool {
        self.len(thread) == 0
    }
}

impl<S> CapsuleQueue<S> {
    /// Help swing the tail from `from` to `to`: no executor ever touches the
    /// tail, so a plain CAS suffices and repeating it is harmless. The tail
    /// line is persisted either way, so no peer reads a tail that is not
    /// durable yet.
    fn swing_tail(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, from: u64, to: u64) {
        let _ = ctx.plain_cas(self.tail, from, to);
        ctx.persist(self.tail);
    }
}

/// The enqueue of its value: the generator builds the node (private writes, a
/// repetition just builds another) and proposes linking it behind the last
/// node, helping a lagging tail first; the wrap-up swings the tail.
struct EnqueueOp<'q, S>(&'q CapsuleQueue<S>, u64);

impl<S> NormalizedOp for EnqueueOp<'_, S> {
    type Input = ();
    type Output = ();

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _: &()) -> CasList {
        let (q, m) = (self.0, ctx.mem());
        let node = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(node), self.1);
        m.init_word(next_addr(node), 0);
        ctx.persist(node);
        loop {
            let last = PAddr::from_raw(m.read_plain(q.tail));
            let next = m.read(next_addr(last));
            if next == 0 {
                let link = CasDesc::new(next_addr(last), 0, node.to_raw());
                return vec![link.with_aux(last.to_raw())];
            }
            q.swing_tail(ctx, last.to_raw(), next);
        }
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        _: &(),
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<()> {
        if executed == 0 {
            return WrapUp::Restart;
        }
        // After a crash the tail may lag by one node, which the Michael–Scott
        // invariant allows: any later operation helps swing it.
        let link = cas_list[0];
        self.0.swing_tail(ctx, link.aux, link.new);
        WrapUp::Done(())
    }

    /// Keeps the value at entry, the new node and the last node; the `next`
    /// word linked and its expected null are rebuilt.
    fn frame(&self) -> CasFrame {
        CasFrame {
            pc: ENQ,
            entry: Some((L_VAL, self.1)),
            new: Some(L_NEW),
            aux: Some(L_SEEN),
            out: L_VAL,
            ..CasFrame::default()
        }
    }

    fn rebuild(&self, kept: CasDesc) -> CasDesc {
        CasDesc::new(next_addr(PAddr::from_raw(kept.aux)), 0, kept.new).with_aux(kept.aux)
    }
}

/// The dequeue: the generator proposes the head swing past the first node,
/// its value riding `aux` (or an empty list when the queue is empty), helping
/// a lagging tail first; the wrap-up reports the value.
struct DequeueOp<'q, S>(&'q CapsuleQueue<S>);

impl<S> NormalizedOp for DequeueOp<'_, S> {
    type Input = ();
    type Output = Option<u64>;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _: &()) -> CasList {
        let (q, m) = (self.0, ctx.mem());
        loop {
            let first = PAddr::from_raw(m.read(q.head));
            let last = PAddr::from_raw(m.read_plain(q.tail));
            let next = PAddr::from_raw(m.read(next_addr(first)));
            if first != last {
                let value = m.read_plain(value_addr(next));
                let swing = CasDesc::new(q.head, first.to_raw(), next.to_raw());
                return vec![swing.with_aux(value)];
            }
            if next.is_null() {
                return Vec::new(); // empty queue: nothing to CAS
            }
            q.swing_tail(ctx, last.to_raw(), next.to_raw());
        }
    }

    fn wrap_up(
        &self,
        _: &mut NormalizedCtx<'_, '_, '_>,
        _: &(),
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<Option<u64>> {
        // The executor (in durable mode) already persisted the head it swung.
        match cas_list.first() {
            None => WrapUp::Done(None),
            Some(_) if executed == 0 => WrapUp::Restart,
            Some(swing) => WrapUp::Done(Some(swing.aux)),
        }
    }

    /// Keeps the expected and new head and the value (the result word);
    /// `head` itself is rebuilt.
    fn frame(&self) -> CasFrame {
        CasFrame {
            pc: DEQ,
            expected: Some(L_SEEN),
            new: Some(L_NEW),
            aux: Some(L_VAL),
            out: L_VAL,
            ..CasFrame::default()
        }
    }

    fn rebuild(&self, mut kept: CasDesc) -> CasDesc {
        kept.obj = self.0.head;
        kept
    }
}

impl<S: Simulator> Capsuled for CapsuleQueue<S> {
    const LOCALS: usize = GENERAL_LOCALS;
    type Sim = S;
    fn sim(&self) -> &S {
        &self.sim
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(value) => {
                self.sim.run(rt, &EnqueueOp(self, value), &());
                None
            }
            StructOp::Pop => self.sim.run(rt, &DequeueOp(self), &()),
            other => panic!("queues take Push/Pop only, got {other:?}"),
        }
    }
}

impl<S: Simulator> QueueHandle for Handle<'_, '_, '_, CapsuleQueue<S>> {
    fn enqueue(&mut self, value: u64) {
        self.apply(StructOp::Push(value));
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.apply(StructOp::Pop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testkit;
    use pmem::PMem;

    fn manual(t: &PThread<'_>, nprocs: usize, optimised: bool) -> NormalizedQueue {
        NormalizedQueue::new(t, nprocs, Durability::Manual, optimised)
    }

    #[test]
    fn fifo_order_single_thread_both_variants() {
        testkit::fifo_single_thread(|t, optimised| manual(t, 1, optimised), NormalizedQueue::len);
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        testkit::concurrent_exactness(|t, nprocs| manual(t, nprocs, false));
    }

    #[test]
    fn operations_survive_random_crashes() {
        testkit::random_crashes(|t, optimised| manual(t, 1, optimised), &[false, true], 99);
    }

    #[test]
    fn concurrent_operations_survive_random_crashes() {
        testkit::concurrent_random_crashes(|t, nprocs| manual(t, nprocs, false), 250, 7000);
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        testkit::survives_full_system_crash(|t| manual(t, 1, false));
    }

    #[test]
    fn crash_point_sweep_after_a_restart_is_exact() {
        testkit::crash_point_sweep_after_restart(|t, optimised| manual(t, 1, optimised));
    }

    #[test]
    fn a_new_handle_after_a_restart_announces_past_the_old_seqs() {
        testkit::new_handle_after_restart(|t, optimised| manual(t, 1, optimised));
    }

    #[test]
    fn opt_variant_uses_fewer_flushes_and_fences() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let measure = |optimised: bool| {
            let q = NormalizedQueue::new(&t, 1, Durability::Manual, optimised);
            let mut h = q.handle(&t);
            h.set_entry_boundary(false);
            let before = t.stats();
            for i in 0..50 {
                h.enqueue(i);
            }
            for _ in 0..50 {
                let _ = h.dequeue();
            }
            t.stats().since(&before)
        };
        let plain = measure(false);
        let opt = measure(true);
        assert!(opt.fences < plain.fences, "{} !< {}", opt.fences, plain.fences);
        assert!(opt.flushes < plain.flushes, "{} !< {}", opt.flushes, plain.flushes);
    }
}
