//! The "Normalized" queue: the Michael–Scott queue expressed as a normalized data
//! structure (CAS generator / executor / wrap-up) and run through the Persistent
//! Normalized Simulator of §7 — one capsule boundary per retry-loop iteration.
//!
//! * **Normalized** — [`BoundaryStyle::General`] frames.
//! * **Normalized-Opt** — [`BoundaryStyle::Compact`] frames plus the inline CAS-list
//!   optimisation ([`NormalizedSimulator::with_inline_lists`]), which is the "reduce
//!   one flush" hand-optimisation the paper describes for this variant.
//!
//! In the normalized decomposition, the executor only ever CASes `head` and node
//! `next` fields; the tail pointer is advanced exclusively by helping code inside
//! the generator and wrap-up (parallelizable methods), so it is kept as a plain
//! word and updated with plain CASes (§7 explains why such locations need no
//! recoverable CAS).

use capsules::{BoundaryStyle, CapsuleRuntime, ContentionMeasure};
use delayfree::{
    adaptive_builders, capsule_handles, Capsuled, CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator,
    SharedMem, StructHandle, StructOp, WrapUp,
};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{Durability, QueueHandle};
use crate::node::{chain_len, next_addr, value_addr, NODE_WORDS};

/// Number of user locals the handle's capsule runtime needs (the inline-list
/// optimisation needs the larger figure; using it everywhere keeps handles uniform).
pub const NORMALIZED_QUEUE_LOCALS: usize = delayfree::NORMALIZED_INLINE_LOCALS;

/// The shared, persistent part of the normalized queue.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedQueue {
    /// Recoverable-CAS word holding the head node address.
    head: PAddr,
    /// Plain word holding the tail node address (only helping code CASes it).
    tail: PAddr,
    sim: NormalizedSimulator,
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
        // See GeneralQueue::new: the recoverable-CAS layer follows the durable
        // flush discipline whenever the queue issues manual flushes.
        let space =
            RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT).with_durability(durability.manual());
        let sentinel = thread.alloc(NODE_WORDS);
        space.init_word(thread, next_addr(sentinel), 0);
        let head = thread.alloc(1);
        let tail = thread.alloc(1);
        space.init_word(thread, head, sentinel.to_raw());
        thread.write(tail, sentinel.to_raw());
        if durability.manual() {
            thread.persist(sentinel);
            thread.persist(head);
            thread.persist(tail);
        }
        // Algorithm 4 persists the CAS list as part of the capsule boundary (it is a
        // stack-allocated local); the MSQ's lists have at most one entry, so they
        // always fit inline in the frame. The heap-buffer fallback only exists for
        // operations with long CAS lists.
        let sim = NormalizedSimulator::new(space, durability.manual())
            .with_style(BoundaryStyle::opt(optimised))
            .with_inline_lists()
            .with_adaptive(true);
        NormalizedQueue { head, tail, sim }
    }

    /// The recoverable-CAS space used by this queue.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Whether this is the Normalized-Opt configuration.
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

/// The normalized enqueue: generator links nothing yet, it just proposes the single
/// `next` CAS; the wrap-up swings the tail.
struct EnqueueOp<'q>(&'q NormalizedQueue);

impl NormalizedOp for EnqueueOp<'_> {
    type Input = u64;
    type Output = ();

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, value: &u64) -> CasList {
        let q = self.0;
        let m = ctx.mem();
        // Allocate and initialise the node (private persistent writes; repetition
        // just rebuilds an unpublished node).
        let node = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(node), *value);
        m.init_word(next_addr(node), 0);
        ctx.persist(node);
        loop {
            let last = PAddr::from_raw(m.read_plain(q.tail));
            let next = m.read(next_addr(last));
            if next != 0 {
                // Help a lagging tail; the tail is never touched by an executor, so
                // a plain CAS suffices (and repetitions are harmless).
                let _ = ctx.plain_cas(q.tail, last.to_raw(), next);
                continue;
            }
            return vec![CasDesc::new(next_addr(last), 0, node.to_raw()).with_aux(last.to_raw())];
        }
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        _value: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<()> {
        if executed == cas_list.len() {
            let q = self.0;
            let last = cas_list[0].aux;
            let node = cas_list[0].new;
            let _ = ctx.plain_cas(q.tail, last, node);
            ctx.persist(q.tail);
            WrapUp::Done(())
        } else {
            WrapUp::Restart
        }
    }
}

/// The normalized dequeue: the generator proposes the head swing (or an empty list
/// when the queue is empty); the wrap-up reports the value carried in `aux`.
struct DequeueOp<'q>(&'q NormalizedQueue);

impl NormalizedOp for DequeueOp<'_> {
    type Input = ();
    type Output = Option<u64>;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _input: &()) -> CasList {
        let q = self.0;
        let m = ctx.mem();
        loop {
            let first = PAddr::from_raw(m.read(q.head));
            let last = PAddr::from_raw(m.read_plain(q.tail));
            let next = PAddr::from_raw(m.read(next_addr(first)));
            if first == last {
                if next.is_null() {
                    return Vec::new(); // empty queue: nothing to CAS
                }
                let _ = ctx.plain_cas(q.tail, last.to_raw(), next.to_raw());
                continue;
            }
            let value = m.read_plain(value_addr(next));
            return vec![CasDesc::new(q.head, first.to_raw(), next.to_raw()).with_aux(value)];
        }
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _input: &(),
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<Option<u64>> {
        if cas_list.is_empty() {
            return WrapUp::Done(None);
        }
        if executed == cas_list.len() {
            // The executor (in durable mode) already persisted the head it swung;
            // no further flushes are needed here.
            WrapUp::Done(Some(cas_list[0].aux))
        } else {
            WrapUp::Restart
        }
    }
}

impl Capsuled for NormalizedQueue {
    const LOCALS: usize = NORMALIZED_QUEUE_LOCALS;
    fn style(&self) -> BoundaryStyle {
        self.sim.style()
    }
    fn contention(&self) -> ContentionMeasure {
        self.sim.contention()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(value) => {
                self.sim.run(rt, &EnqueueOp(self), &value);
                None
            }
            StructOp::Pop => self.sim.run(rt, &DequeueOp(self), &()),
            other => panic!("queues take Push/Pop only, got {other:?}"),
        }
    }
}

capsule_handles!(NormalizedQueue, NormalizedQueueHandle);
adaptive_builders!(NormalizedQueue);

impl QueueHandle for NormalizedQueueHandle<'_, '_, '_> {
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
    fn normalized_uses_fewer_boundaries_than_general() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        // This compares the two *simulators*, so pin both to the slow path.
        // Normalized: one boundary before the executor + the final one per op.
        let qn = NormalizedQueue::new(&t, 1, Durability::Manual, false).with_adaptive(false);
        let mut hn = qn.handle(&t);
        hn.set_entry_boundary(false);
        for i in 0..20 {
            hn.enqueue(i);
        }
        let norm_boundaries = hn.runtime_mut().metrics().boundaries;
        // General: three boundaries per uncontended enqueue.
        let qg = crate::GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General)
            .with_adaptive(false);
        let mut hg = qg.handle(&t);
        hg.set_entry_boundary(false);
        for i in 0..20 {
            hg.enqueue(i);
        }
        let gen_boundaries = hg.runtime_mut().metrics().boundaries;
        assert!(
            norm_boundaries < gen_boundaries,
            "normalized ({norm_boundaries}) must use fewer boundaries than general ({gen_boundaries})"
        );
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
