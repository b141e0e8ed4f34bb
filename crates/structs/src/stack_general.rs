//! The "General" stack: the Treiber stack transformed by the
//! Low-Computation-Delay (CAS-Read) simulator of §6 — the stack-shaped sibling
//! of [`queues::GeneralQueue`].
//!
//! Every operation is a two-capsule program: a read-only capsule observes `top`
//! (and, for a push, allocates and initialises the node — private persistent
//! writes, safe to repeat), then a CAS-Read capsule performs the single
//! recoverable CAS on `top` as its first shared-memory effect. The stack is the
//! minimal exercise of the construction — one contended word, one CAS per
//! operation — which makes it the sharpest detectability probe: *every* crash
//! point is adjacent to the linearization point.

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
use delayfree::{CasReadSimulator, SharedMem};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{capsule_handles, Capsuled, StructOp};
use crate::node::{next_addr, value_addr, NODE_WORDS};
use crate::stack::len_of;

// Persisted local slots (user indices).
const L_VAL: usize = 0; // push: value; pop: value to return
const L_NODE: usize = 1; // push: the new node; pop: the observed successor
const L_TOP: usize = 2; // the observed top
/// Number of user locals a handle's capsule runtime uses.
pub const STACK_GENERAL_LOCALS: usize = 3;

// Push program counters.
const S_START: u32 = 0;
const S_CAS: u32 = 1;
const S_DONE: u32 = 2;
// Pop program counters.
const P_START: u32 = 10;
const P_CAS: u32 = 11;
const P_DONE_SOME: u32 = 12;
const P_DONE_NONE: u32 = 13;

/// The shared, persistent part of the transformed stack.
#[derive(Clone, Copy, Debug)]
pub struct GeneralStack {
    top: PAddr,
    sim: CasReadSimulator,
}

impl GeneralStack {
    /// Create an empty stack for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline (`Durability::Manual` semantics: the
    /// recoverable-CAS layer adopts the durable-announcement discipline of
    /// DESIGN.md §7, and the stack persists nodes before publishing them).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        manual: bool,
        style: BoundaryStyle,
    ) -> GeneralStack {
        let space = RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT).with_durability(manual);
        let top = thread.alloc(1);
        space.init_word(thread, top, 0);
        if manual {
            thread.persist(top);
        }
        let sim = CasReadSimulator::new(space).with_durable(manual).with_style(style);
        GeneralStack { top, sim }
    }

    /// The recoverable-CAS space used by this stack.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Count the elements reachable from the top (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(&self.sim.mem(thread), self.top)
    }

    /// One push capsule (entry pc [`S_START`]).
    fn push_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<()> {
        let sim = &self.sim;
        match rt.pc() {
            // Read-only capsule: allocate and initialise the node, observe top.
            S_START => {
                let value = rt.local(L_VAL);
                let m = sim.mem(rt.thread());
                let node = m.alloc(NODE_WORDS);
                m.write_plain(value_addr(node), value);
                let top = m.read(self.top);
                m.write_plain(next_addr(node), top);
                // The S_CAS boundary (not a CAS) publishes the node pointer
                // next, so the fence cannot be elided here.
                sim.persist_line_before_boundary(rt.thread(), node);
                rt.set_local_addr(L_NODE, node);
                rt.set_local(L_TOP, top);
                rt.boundary(S_CAS);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: swing top to the new node.
            S_CAS => {
                let node = rt.local(L_NODE);
                let top = rt.local(L_TOP);
                if sim.capsule_cas(rt, self.top, top, node) {
                    rt.finish_boundary(S_DONE);
                    CapsuleStep::Done(())
                } else {
                    rt.boundary(S_START);
                    CapsuleStep::Continue
                }
            }
            // The final boundary had been published before a crash: done.
            S_DONE => CapsuleStep::Done(()),
            pc => unreachable!("general stack push: unexpected pc {pc}"),
        }
    }

    /// One pop capsule (entry pc [`P_START`]).
    fn pop_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<Option<u64>> {
        let sim = &self.sim;
        match rt.pc() {
            // Read-only capsule: observe top, its successor and its value.
            P_START => {
                let m = sim.mem(rt.thread());
                let top = PAddr::from_raw(m.read(self.top));
                if top.is_null() {
                    rt.finish_boundary(P_DONE_NONE);
                    return CapsuleStep::Done(None);
                }
                let next = m.read_plain(next_addr(top));
                let value = m.read_plain(value_addr(top));
                rt.set_local(L_VAL, value);
                rt.set_local_addr(L_TOP, top);
                rt.set_local(L_NODE, next);
                rt.boundary(P_CAS);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: swing top past the popped node.
            P_CAS => {
                let top = rt.local(L_TOP);
                let next = rt.local(L_NODE);
                if sim.capsule_cas(rt, self.top, top, next) {
                    let value = rt.local(L_VAL);
                    rt.finish_boundary(P_DONE_SOME);
                    CapsuleStep::Done(Some(value))
                } else {
                    rt.boundary(P_START);
                    CapsuleStep::Continue
                }
            }
            P_DONE_SOME => CapsuleStep::Done(Some(rt.local(L_VAL))),
            P_DONE_NONE => CapsuleStep::Done(None),
            pc => unreachable!("general stack pop: unexpected pc {pc}"),
        }
    }
}

impl Capsuled for GeneralStack {
    const LOCALS: usize = STACK_GENERAL_LOCALS;
    fn style(&self) -> BoundaryStyle {
        self.sim.style()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(value) => {
                rt.set_local(L_VAL, value);
                rt.run_op(S_START, |rt| self.push_step(rt));
                None
            }
            StructOp::Pop => rt.run_op(P_START, |rt| self.pop_step(rt)),
            other => panic!("stack handle cannot apply keyed operation {other:?}"),
        }
    }
}

capsule_handles!(GeneralStack, GeneralStackHandle);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testkit;
    use StructOp::{Pop, Push};

    fn styled(t: &PThread<'_>, nprocs: usize, compact: bool) -> GeneralStack {
        GeneralStack::new(t, nprocs, true, BoundaryStyle::opt(compact))
    }

    #[test]
    fn lifo_order_single_thread_both_styles() {
        testkit::lifo_single_thread(|t, compact| styled(t, 1, compact), GeneralStack::len);
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        testkit::lifo_concurrent(|t, nprocs| styled(t, nprocs, false));
    }

    #[test]
    fn operations_survive_random_crashes() {
        testkit::lifo_random_crashes(|t, compact| styled(t, 1, compact), &[false], 17);
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        let pushes: Vec<StructOp> = (1..=20).map(Push).collect();
        let expect: Vec<u64> = (1..=20).rev().collect();
        testkit::survives_full_system_crash(|t| styled(t, 1, false), &pushes, &expect, true);
    }

    /// Mirrors the queue simulators' exhaustive tests.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        testkit::exhaustive_crash_point_sweep(
            |t| styled(t, 1, false),
            &[Push(100)],
            &[Push(1), Push(2), Pop, Pop],
            (vec![None, None, Some(2), Some(1)], vec![100]),
        );
    }
}
