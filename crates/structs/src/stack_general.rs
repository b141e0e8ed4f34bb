//! The "General" stack: the Treiber stack transformed by the
//! Low-Computation-Delay (CAS-Read) simulator of §6 — the stack-shaped sibling
//! of [`queues::GeneralQueue`].
//!
//! Every operation is a two-capsule program: a read-only capsule observes `top`
//! (and, for a push, allocates and initialises the node — private persistent
//! writes, safe to repeat), then a CAS-Read capsule performs the single
//! recoverable CAS on `top` as its first shared-memory effect. Uncontended, both
//! run instead as one fast capsule ([`CasReadSimulator::fast_capsule`]; on by
//! default, [`with_adaptive`](GeneralStack::with_adaptive)). The stack is the
//! minimal exercise of the construction — one contended word, one CAS per
//! operation — which makes it the sharpest detectability probe: *every* crash
//! point is adjacent to the linearization point.

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure};
use delayfree::{CasDesc, CasReadSimulator, Proposal, SharedMem};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

use crate::api::{adaptive_builders, capsule_handles, Capsuled, StructOp};
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
/// Contention-adaptive fast push: the whole operation in one capsule.
const F_PUSH: u32 = 3;
// Pop program counters.
const P_START: u32 = 10;
const P_CAS: u32 = 11;
const P_DONE_SOME: u32 = 12;
const P_DONE_NONE: u32 = 13;
/// Contention-adaptive fast pop: the whole operation in one capsule.
const F_POP: u32 = 14;

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
        let sim = CasReadSimulator::new(space)
            .with_durable(manual)
            .with_style(style)
            .with_adaptive(true);
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

    /// Allocate and initialise the node of a push on top of the observed
    /// `top`, which is returned with it (private persistent writes: a
    /// restarted capsule just builds another).
    fn new_node(&self, rt: &mut CapsuleRuntime<'_, '_>) -> (PAddr, u64) {
        let value = rt.local(L_VAL);
        let m = self.sim.mem(rt.thread());
        let node = m.alloc(NODE_WORDS);
        m.write_plain(value_addr(node), value);
        let top = m.read(self.top);
        m.write_plain(next_addr(node), top);
        (node, top)
    }

    /// One push capsule (entry pc [`S_START`], or [`F_PUSH`] on the fast path).
    fn push_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<()> {
        let sim = &self.sim;
        match rt.pc() {
            // Fast capsule: the node of a lost attempt is abandoned, like the
            // slow path's.
            F_PUSH => sim.fast_capsule(
                rt,
                S_START,
                |rt| {
                    let (node, top) = self.new_node(rt);
                    sim.persist_line(rt.thread(), node);
                    Proposal::Cas(CasDesc::new(self.top, top, node.to_raw()))
                },
                |rt, _, _| rt.finish_boundary(S_DONE),
            ),
            // Read-only capsule: allocate and initialise the node, observe top.
            S_START => {
                let (node, top) = self.new_node(rt);
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

    /// One pop capsule (entry pc [`P_START`], or [`F_POP`] on the fast path).
    fn pop_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<Option<u64>> {
        let sim = &self.sim;
        match rt.pc() {
            // Fast capsule: the popped value rides the evidence's aux word, so
            // a post-CAS crash can still report it.
            F_POP => sim.fast_capsule(
                rt,
                P_START,
                |rt| {
                    let m = sim.mem(rt.thread());
                    let top = PAddr::from_raw(m.read(self.top));
                    if top.is_null() {
                        rt.finish_boundary(P_DONE_NONE);
                        return Proposal::Done(None);
                    }
                    let next = m.read_plain(next_addr(top));
                    let value = m.read_plain(value_addr(top));
                    Proposal::Cas(CasDesc::new(self.top, top.to_raw(), next).with_aux(value))
                },
                |rt, cas, _| {
                    rt.set_local(L_VAL, cas.aux);
                    rt.finish_boundary(P_DONE_SOME);
                    Some(cas.aux)
                },
            ),
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
    fn contention(&self) -> ContentionMeasure {
        self.sim.contention()
    }

    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(value) => {
                rt.set_local(L_VAL, value);
                let entry = self.sim.enter(rt, F_PUSH, S_START);
                rt.run_op(entry, |rt| self.push_step(rt));
                None
            }
            StructOp::Pop => {
                let entry = self.sim.enter(rt, F_POP, P_START);
                rt.run_op(entry, |rt| self.pop_step(rt))
            }
            other => panic!("stack handle cannot apply keyed operation {other:?}"),
        }
    }
}

capsule_handles!(GeneralStack, GeneralStackHandle);
adaptive_builders!(GeneralStack);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{testkit, StructHandle};
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

    /// Mirrors the queue simulators' exhaustive tests: the fast capsules (the
    /// default), then the slow machine.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        for adaptive in [true, false] {
            testkit::exhaustive_crash_point_sweep(
                |t| styled(t, 1, false).with_adaptive(adaptive),
                &[Push(100)],
                &[Push(1), Push(2), Pop, Pop],
                (vec![None, None, Some(2), Some(1)], vec![100]),
            );
        }
    }

    /// Kill a fast pop at each of its crash points and look at the machine
    /// as recovery finds it (both frame styles, per-process and full-system
    /// crashes): whatever the point, the pop takes effect exactly once — in
    /// particular from the evidence's `aux` word when the crash fell between
    /// the CAS and the final boundary (`L_VAL` was never persisted), and by
    /// plainly re-running the capsule, nothing durable having escaped, when
    /// it fell before the announcement.
    #[test]
    fn fast_pop_killed_at_any_point_pops_exactly_once() {
        for (compact, system) in [(false, false), (false, true), (true, false), (true, true)] {
            let (mut unannounced, mut after_cas) = (0, 0);
            for k in 0.. {
                let build = |t: &PThread<'_>| styled(t, 1, compact);
                let seen = testkit::die_at(build, system, &[Push(1), Push(2)], Pop, k, |s, t, h| {
                    let pc = h.runtime_mut().pc();
                    let swung = s.len(t) == 1;
                    let announced = s.space().announcement(t).seq > h.runtime_mut().seq();
                    // A frame still at the last push's S_DONE never entered the pop.
                    let got = match pc {
                        S_DONE => h.apply(Pop),
                        _ => h.runtime_mut().resume_op(|rt| s.pop_step(rt)),
                    };
                    assert_eq!(got, Some(2), "compact={compact} system={system} k={k} pc={pc}");
                    assert_eq!((h.apply(Pop), h.apply(Pop)), (Some(1), None), "k={k}");
                    (pc, swung, announced)
                });
                match seen {
                    None => break,
                    Some((F_POP, false, false)) => unannounced += 1,
                    Some((F_POP, true, announced)) => {
                        assert!(announced, "k={k}: the CAS follows its announcement");
                        after_cas += 1;
                    }
                    Some(_) => {}
                }
            }
            assert!(unannounced > 0 && after_cas > 0, "compact={compact} system={system}");
        }
    }

    /// Two scheduled pids push through a trip-1 policy: every lost fast CAS
    /// demotes its push, which must re-enter `S_START`, abandon the fast
    /// node and still push exactly once.
    #[test]
    fn trip1_demotion_reenters_the_slow_push_and_abandons_the_fast_node() {
        let trip1 = ContentionMeasure::new().with_threshold(1);
        let values = |pid: u64| (0..6).map(move |i| 100 * pid + i);
        let ops = |pid: u64| values(pid).map(Push).collect::<Vec<_>>();
        let mut demotions = 0;
        for seed in 1..=6 {
            let build = |t: &PThread<'_>, n| styled(t, n, false).with_contention(trip1);
            let (pids, left) = testkit::scheduled_pair(build, ops, seed);
            let mut items = left.items;
            items.sort_unstable();
            assert_eq!(items, values(0).chain(values(1)).collect::<Vec<_>>(), "seed {seed}");
            for pid in &pids {
                testkit::assert_demotions_reentered_the_slow_machine(pid, NODE_WORDS);
                demotions += pid.0.demotions;
            }
        }
        assert!(demotions > 0, "the scheduled interleavings must lose a fast CAS");
    }
}
