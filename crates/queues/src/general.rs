//! The "General" queue: the Michael–Scott queue transformed by the
//! Low-Computation-Delay (CAS-Read) simulator of §6.
//!
//! Each operation is written exactly as the paper's transformation would emit it: an
//! explicit program-counter state machine in which every capsule contains at most
//! one CAS — the simulator's recoverable [`capsule_cas`] — as its first
//! shared-memory effect, followed only by reads and local work, and ends with a
//! capsule boundary persisting the locals the next capsule needs. Everything that
//! is the construction's rather than the queue's — frame layout, flush
//! discipline, fast-path entry and crash triage — is the [`CasReadSimulator`]'s.
//!
//! Two configurations correspond to the paper's variants:
//!
//! * **General** — [`BoundaryStyle::General`] frames (double-buffered locals +
//!   validity mask; two fences per boundary),
//! * **General-Opt** — [`BoundaryStyle::Compact`] frames (all locals on one cache
//!   line; one fence per boundary) and elision of fences that are immediately
//!   followed by a CAS (§9, §10 "our optimizations include…").
//!
//! Durability in the shared-cache model comes from [`Durability::Manual`] flushes
//! (Figure 6) or from the Izraelevitz thread option (Figure 5).
//!
//! [`capsule_cas`]: CasReadSimulator::capsule_cas

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
use delayfree::{
    adaptive_builders, capsule_handles, Attempt, Capsuled, CasDesc, CasReadSimulator, Proposal,
    SharedMem, Simulator, StructHandle, StructOp,
};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{Durability, QueueHandle};
use crate::node::{chain_len, next_addr, value_addr, NODE_WORDS};

// Persisted local slots (user indices).
const L_VAL: usize = 0; // enqueue: value to insert; dequeue: value to return
const L_AUX: usize = 1; // enqueue: the new node; dequeue: the observed head
const L_LAST: usize = 2; // observed tail
const L_NEXT: usize = 3; // observed successor
/// Number of user locals a handle's capsule runtime uses.
pub const GENERAL_LOCALS: usize = 4;

// Enqueue program counters.
const E_START: u32 = 0;
const E_LINK: u32 = 1;
const E_SWING: u32 = 2;
const E_ADVANCE: u32 = 3;
const E_DONE: u32 = 4;
/// Contention-adaptive fast enqueue: the whole operation in one capsule.
const F_ENQ: u32 = 5;
// Dequeue program counters.
const D_START: u32 = 10;
const D_CAS_HEAD: u32 = 11;
const D_DONE_SOME: u32 = 12;
const D_ADVANCE: u32 = 13;
const D_DONE_NONE: u32 = 14;
/// Contention-adaptive fast dequeue: the whole operation in one capsule.
const F_DEQ: u32 = 15;

/// The shared, persistent part of the transformed queue.
#[derive(Clone, Copy, Debug)]
pub struct GeneralQueue {
    head: PAddr,
    tail: PAddr,
    sim: CasReadSimulator,
}

impl GeneralQueue {
    /// Create an empty queue for `nprocs` processes.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        durability: Durability,
        style: BoundaryStyle,
    ) -> GeneralQueue {
        // Under manual durability the recoverable-CAS layer itself must follow
        // the flush discipline (announcement lines durable before every
        // publishing CAS) — persisting a CAS target afterwards is not enough
        // once full-system crashes can roll back unflushed announcement state.
        let space =
            RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT).with_durability(durability.manual());
        let sentinel = thread.alloc(NODE_WORDS);
        space.init_word(thread, next_addr(sentinel), 0);
        let head = thread.alloc(1);
        let tail = thread.alloc(1);
        space.init_word(thread, head, sentinel.to_raw());
        space.init_word(thread, tail, sentinel.to_raw());
        if durability.manual() {
            thread.persist(sentinel);
            thread.persist(head);
            thread.persist(tail);
        }
        let sim = CasReadSimulator::new(space)
            .with_durable(durability.manual())
            .with_style(style)
            .with_adaptive(true);
        GeneralQueue { head, tail, sim }
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

    /// CAS-Read capsule body: swing the tail from `from` to `to`. Failure is
    /// fine (someone helped); either way the tail line is persisted.
    fn swing_tail(&self, rt: &mut CapsuleRuntime<'_, '_>, from: u64, to: u64) {
        if !self.sim.capsule_cas(rt, self.tail, from, to) {
            self.sim.persist_line(rt.thread(), self.tail);
        }
    }

    /// Fast-capsule helping: swing a lagging tail with an anonymous CAS
    /// (repeat-safe, so no boundary is needed) and persist the tail line.
    fn help_tail(&self, t: &PThread<'_>, from: u64, to: u64) {
        let _ = self.sim.mem(t).help_cas(self.tail, from, to);
        self.sim.persist_line(t, self.tail);
    }

    /// One enqueue capsule (entry pc [`E_START`], or [`F_ENQ`] on the fast path).
    fn enqueue_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<()> {
        let sim = &self.sim;
        let m = sim.mem(rt.thread());
        match rt.pc() {
            // Adaptive fast path: the whole Michael–Scott enqueue as one
            // un-checkpointed capsule. The node is built once and abandoned
            // on a demotion, as on any lost race (E_START allocates afresh).
            F_ENQ => {
                let mut node = None;
                sim.fast_capsule(
                    rt,
                    E_START,
                    |rt| loop {
                        let node = *node.get_or_insert_with(|| {
                            let node = self.new_node(rt);
                            sim.persist_line(rt.thread(), node);
                            node
                        });
                        let last = PAddr::from_raw(m.read(self.tail));
                        let next = m.read(next_addr(last));
                        if next == 0 {
                            let link = CasDesc::new(next_addr(last), 0, node.to_raw());
                            return Proposal::Cas(link.with_aux(last.to_raw()));
                        }
                        self.help_tail(rt.thread(), last.to_raw(), next);
                    },
                    |rt, cas, attempt| {
                        // After a crash the tail may lag by one node, which
                        // the Michael–Scott invariant allows (any later
                        // operation helps swing it).
                        if attempt == Attempt::Won {
                            self.help_tail(rt.thread(), cas.aux, cas.new);
                        }
                        rt.finish_boundary(E_DONE);
                    },
                )
            }
            // Read-only capsule: allocate and initialise the node, read the
            // tail and its successor, and branch.
            E_START => {
                let node = self.new_node(rt);
                // The E_LINK boundary (not a CAS) publishes the node pointer
                // next, so the fence cannot be elided here.
                sim.persist_line_before_boundary(rt.thread(), node);
                let last = PAddr::from_raw(m.read(self.tail));
                let next = m.read(next_addr(last));
                rt.set_local_addr(L_AUX, node);
                rt.set_local_addr(L_LAST, last);
                if next == 0 {
                    rt.boundary(E_LINK);
                } else {
                    rt.set_local(L_NEXT, next);
                    rt.boundary(E_ADVANCE);
                }
                CapsuleStep::Continue
            }
            // CAS-Read capsule: link the node after the observed tail.
            E_LINK => {
                let node = rt.local(L_AUX);
                let last = rt.local_addr(L_LAST);
                if sim.capsule_cas(rt, next_addr(last), 0, node) {
                    rt.boundary(E_SWING);
                } else {
                    rt.boundary(E_START);
                }
                CapsuleStep::Continue
            }
            // CAS-Read capsule: swing the tail to the new node.
            E_SWING => {
                let node = rt.local(L_AUX);
                let last = rt.local(L_LAST);
                self.swing_tail(rt, last, node);
                rt.finish_boundary(E_DONE);
                CapsuleStep::Done(())
            }
            // CAS-Read capsule: help advance a lagging tail, then retry.
            E_ADVANCE => {
                let last = rt.local(L_LAST);
                let next = rt.local(L_NEXT);
                self.swing_tail(rt, last, next);
                rt.boundary(E_START);
                CapsuleStep::Continue
            }
            // The final boundary had been published before a crash: done.
            E_DONE => CapsuleStep::Done(()),
            pc => unreachable!("general enqueue: unexpected pc {pc}"),
        }
    }

    /// Allocate and initialise the node carrying the enqueue's value (private
    /// persistent writes: a restarted capsule just builds another).
    fn new_node(&self, rt: &mut CapsuleRuntime<'_, '_>) -> PAddr {
        let value = rt.local(L_VAL);
        let m = self.sim.mem(rt.thread());
        let node = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(node), value);
        m.init_word(next_addr(node), 0);
        node
    }

    /// One dequeue capsule (entry pc [`D_START`], or [`F_DEQ`] on the fast path).
    fn dequeue_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<Option<u64>> {
        let sim = &self.sim;
        let m = sim.mem(rt.thread());
        match rt.pc() {
            // Adaptive fast path: the whole Michael–Scott dequeue as one
            // un-checkpointed capsule. The dequeued value rides the
            // evidence's aux word so a post-CAS crash can still report it.
            F_DEQ => sim.fast_capsule(
                rt,
                D_START,
                |rt| loop {
                    let first = PAddr::from_raw(m.read(self.head));
                    let last = PAddr::from_raw(m.read(self.tail));
                    let next = PAddr::from_raw(m.read(next_addr(first)));
                    if first != last {
                        let value = m.read_plain(value_addr(next));
                        let swing = CasDesc::new(self.head, first.to_raw(), next.to_raw());
                        return Proposal::Cas(swing.with_aux(value));
                    }
                    if next.is_null() {
                        rt.finish_boundary(D_DONE_NONE);
                        return Proposal::Done(None);
                    }
                    self.help_tail(rt.thread(), last.to_raw(), next.to_raw());
                },
                |rt, cas, _| {
                    rt.set_local(L_VAL, cas.aux);
                    rt.finish_boundary(D_DONE_SOME);
                    Some(cas.aux)
                },
            ),
            // Read-only capsule: read head, tail and head.next, and branch.
            D_START => {
                let first = PAddr::from_raw(m.read(self.head));
                let last = PAddr::from_raw(m.read(self.tail));
                let next = PAddr::from_raw(m.read(next_addr(first)));
                if first == last {
                    if next.is_null() {
                        rt.finish_boundary(D_DONE_NONE);
                        return CapsuleStep::Done(None);
                    }
                    rt.set_local_addr(L_LAST, last);
                    rt.set_local_addr(L_NEXT, next);
                    rt.boundary(D_ADVANCE);
                    return CapsuleStep::Continue;
                }
                let value = m.read_plain(value_addr(next));
                rt.set_local(L_VAL, value);
                rt.set_local_addr(L_AUX, first);
                rt.set_local_addr(L_NEXT, next);
                rt.boundary(D_CAS_HEAD);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: swing the head past the dequeued node.
            D_CAS_HEAD => {
                let first = rt.local(L_AUX);
                let next = rt.local(L_NEXT);
                if sim.capsule_cas(rt, self.head, first, next) {
                    let value = rt.local(L_VAL);
                    rt.finish_boundary(D_DONE_SOME);
                    CapsuleStep::Done(Some(value))
                } else {
                    rt.boundary(D_START);
                    CapsuleStep::Continue
                }
            }
            // CAS-Read capsule: help advance a lagging tail, then retry.
            D_ADVANCE => {
                let last = rt.local(L_LAST);
                let next = rt.local(L_NEXT);
                self.swing_tail(rt, last, next);
                rt.boundary(D_START);
                CapsuleStep::Continue
            }
            // Crash after the final boundary: the result was persisted.
            D_DONE_SOME => CapsuleStep::Done(Some(rt.local(L_VAL))),
            D_DONE_NONE => CapsuleStep::Done(None),
            pc => unreachable!("general dequeue: unexpected pc {pc}"),
        }
    }
}

impl Capsuled for GeneralQueue {
    const LOCALS: usize = GENERAL_LOCALS;
    type Sim = CasReadSimulator;
    fn sim(&self) -> &CasReadSimulator {
        &self.sim
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(value) => {
                rt.set_local(L_VAL, value);
                let entry = self.sim.enter(rt, F_ENQ, E_START);
                rt.run_op(entry, |rt| self.enqueue_step(rt));
                None
            }
            StructOp::Pop => {
                let entry = self.sim.enter(rt, F_DEQ, D_START);
                rt.run_op(entry, |rt| self.dequeue_step(rt))
            }
            other => panic!("queues take Push/Pop only, got {other:?}"),
        }
    }
}

capsule_handles!(GeneralQueue, GeneralQueueHandle);
adaptive_builders!(GeneralQueue);

impl QueueHandle for GeneralQueueHandle<'_, '_, '_> {
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

    fn styled(t: &PThread<'_>, nprocs: usize, compact: bool) -> GeneralQueue {
        GeneralQueue::new(t, nprocs, Durability::Manual, BoundaryStyle::opt(compact))
    }

    #[test]
    fn fifo_order_single_thread_both_styles() {
        testkit::fifo_single_thread(|t, compact| styled(t, 1, compact), GeneralQueue::len);
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        testkit::concurrent_exactness(|t, nprocs| styled(t, nprocs, false));
    }

    #[test]
    fn single_thread_operations_survive_random_crashes() {
        testkit::random_crashes(|t, compact| styled(t, 1, compact), &[false], 31);
    }

    #[test]
    fn concurrent_operations_survive_random_crashes() {
        testkit::concurrent_random_crashes(|t, nprocs| styled(t, nprocs, false), 300, 5000);
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        testkit::survives_full_system_crash(|t| styled(t, 1, false));
    }

    #[test]
    fn crash_point_sweep_after_a_restart_is_exact() {
        testkit::crash_point_sweep_after_restart(|t, compact| styled(t, 1, compact));
    }

    #[test]
    fn opt_variant_uses_fewer_fences_per_operation() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let measure = |style| {
            let q = GeneralQueue::new(&t, 1, Durability::Manual, style);
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
        let general = measure(BoundaryStyle::General);
        let opt = measure(BoundaryStyle::Compact);
        assert!(
            opt.fences < general.fences,
            "General-Opt must issue fewer fences (got {} vs {})",
            opt.fences,
            general.fences
        );
        assert!(opt.flushes <= general.flushes);
    }

    #[test]
    fn attach_handle_resumes_after_restart() {
        let mem = PMem::with_threads(1);
        let q = styled(&mem.thread(0), 1, false);
        {
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            h.enqueue(7);
            h.enqueue(8);
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = q.attach_handle(&t);
        assert_eq!(h.dequeue(), Some(7));
        assert_eq!(h.dequeue(), Some(8));
    }
}
