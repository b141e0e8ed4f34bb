//! The "Normalized" stack: the Treiber stack expressed as a normalized data
//! structure (CAS generator / executor / wrap-up) and run through the
//! Persistent Normalized Simulator of §7 — the stack-shaped sibling of
//! [`queues::NormalizedQueue`].
//!
//! Both operations decompose trivially: the generator observes `top` and
//! proposes the single executor CAS (push additionally allocates and
//! initialises the node — private writes, safe to repeat); the wrap-up reports
//! the result (a pop's value travels in the CAS descriptor's `aux` word, the
//! same trick the normalized dequeue uses). An empty stack yields an empty CAS
//! list and the wrap-up answers `None` directly.

use capsules::{BoundaryStyle, CapsuleRuntime, ContentionMeasure};
use delayfree::{
    CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, SharedMem, WrapUp,
};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{adaptive_builders, capsule_handles, normalized_simulator, Capsuled, StructOp};
use crate::node::{next_addr, value_addr, NODE_WORDS};
use crate::stack::len_of;

/// Number of user locals the handle's capsule runtime needs (inline CAS lists
/// always fit: every stack operation proposes at most one CAS).
pub const NORMALIZED_STACK_LOCALS: usize = delayfree::NORMALIZED_INLINE_LOCALS;

/// The shared, persistent part of the normalized stack.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedStack {
    /// Recoverable-CAS word holding the top node address.
    top: PAddr,
    sim: NormalizedSimulator,
}

impl NormalizedStack {
    /// Create an empty stack for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline; `optimised` the compact-frame + inline
    /// CAS-list configuration (the `-Opt` style of the queues).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        manual: bool,
        optimised: bool,
    ) -> NormalizedStack {
        let space = RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT).with_durability(manual);
        let top = thread.alloc(1);
        space.init_word(thread, top, 0);
        if manual {
            thread.persist(top);
        }
        let sim = normalized_simulator(space, manual, optimised, true);
        NormalizedStack { top, sim }
    }

    /// The recoverable-CAS space used by this stack.
    pub fn space(&self) -> &RcasSpace {
        self.sim.space()
    }

    /// Count the elements reachable from the top (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(&self.sim.mem(thread), self.top)
    }
}

/// The normalized push: the generator allocates the node and proposes the top
/// swing; the wrap-up has nothing left to do.
struct PushOp<'q>(&'q NormalizedStack);

impl NormalizedOp for PushOp<'_> {
    type Input = u64;
    type Output = ();

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, value: &u64) -> CasList {
        let m = ctx.mem();
        // Allocate and initialise the node (private persistent writes;
        // repetition just rebuilds an unpublished node).
        let node = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(node), *value);
        let top = m.read(self.0.top);
        m.write_plain(next_addr(node), top);
        ctx.persist(node);
        vec![CasDesc::new(self.0.top, top, node.to_raw())]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _value: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<()> {
        if executed == cas_list.len() {
            // The executor (in durable mode) already persisted the top it swung.
            WrapUp::Done(())
        } else {
            WrapUp::Restart
        }
    }
}

/// The normalized pop: the generator proposes the top swing (or an empty list
/// when the stack is empty); the wrap-up reports the value carried in `aux`.
struct PopOp<'q>(&'q NormalizedStack);

impl NormalizedOp for PopOp<'_> {
    type Input = ();
    type Output = Option<u64>;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _input: &()) -> CasList {
        let m = ctx.mem();
        let top = PAddr::from_raw(m.read(self.0.top));
        if top.is_null() {
            return Vec::new(); // empty stack: nothing to CAS
        }
        let next = m.read_plain(next_addr(top));
        let value = m.read_plain(value_addr(top));
        vec![CasDesc::new(self.0.top, top.to_raw(), next).with_aux(value)]
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
            WrapUp::Done(Some(cas_list[0].aux))
        } else {
            WrapUp::Restart
        }
    }
}

impl Capsuled for NormalizedStack {
    const LOCALS: usize = NORMALIZED_STACK_LOCALS;
    fn style(&self) -> BoundaryStyle {
        self.sim.style()
    }
    fn contention(&self) -> ContentionMeasure {
        self.sim.contention()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(value) => {
                self.sim.run(rt, &PushOp(self), &value);
                None
            }
            StructOp::Pop => self.sim.run(rt, &PopOp(self), &()),
            other => panic!("stack handle cannot apply keyed operation {other:?}"),
        }
    }
}

capsule_handles!(NormalizedStack, NormalizedStackHandle);
adaptive_builders!(NormalizedStack);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testkit;
    use StructOp::{Pop, Push};

    #[test]
    fn lifo_order_single_thread_both_variants() {
        testkit::lifo_single_thread(
            |t, optimised| NormalizedStack::new(t, 1, true, optimised),
            NormalizedStack::len,
        );
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        testkit::lifo_concurrent(|t, nprocs| NormalizedStack::new(t, nprocs, true, false));
    }

    #[test]
    fn operations_survive_random_crashes() {
        testkit::lifo_random_crashes(
            |t, optimised| NormalizedStack::new(t, 1, true, optimised),
            &[false, true],
            23,
        );
    }

    /// Mirrors the queue simulators' exhaustive tests: the fast capsule (the
    /// default), then the full Algorithm 4 machinery.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        for adaptive in [true, false] {
            testkit::exhaustive_crash_point_sweep(
                |t| NormalizedStack::new(t, 1, true, false).with_adaptive(adaptive),
                &[Push(100)],
                &[Push(1), Pop, Push(2), Pop, Pop],
                (vec![None, Some(1), None, Some(2), Some(100)], vec![]),
            );
        }
    }
}
