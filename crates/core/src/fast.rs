//! The contention-adaptive fast capsule, written once for both simulators.
//!
//! A single-CAS operation needs no checkpoint between its reads and its CAS
//! once recovery can tell from durable state whether the CAS happened (§7).
//! [`RcasSpace::cas_with_evidence`] leaves exactly that state on the caller's
//! announcement line, so an uncontended operation runs as *one* capsule:
//!
//! 1. after a crash, triage from the announcement line ([`recover_fast`]): if
//!    this operation's CAS took effect, re-persist its target and *finish*
//!    from the evidence; otherwise nothing durable escaped and the capsule
//!    simply runs again;
//! 2. loop { *propose* → the evidence-carrying CAS → persist its target →
//!    *finish* }, demoting to the structure's slow entry pc through a boundary
//!    when [`ContentionMeasure::record_failure`] trips.
//!
//! The contract of the two closures an operation declares:
//!
//! * ***propose*** is parallelizable: reads, private writes (a node allocated
//!   here is simply abandoned by a retry, a crash or a demotion), anonymous
//!   helping. It may finish the operation itself when no CAS is needed
//!   (emitting the final boundary) and may loop internally while it helps.
//! * ***finish*** sees the CAS and how the attempt ended. When it took effect
//!   it does the operation's parallelizable post-work (tail swing, resize
//!   trigger), emits the **final boundary** and returns the result; `None`
//!   retries. It must be repeat-safe: a crash before the final boundary runs
//!   it again from the evidence. Whatever it needs beyond the CAS itself rides
//!   [`CasDesc::aux`] — the evidence carries the word durably, so nothing is
//!   `set_local` before the CAS and the frame needs no slot for it.
//!
//! [`ContentionMeasure::record_failure`]: capsules::ContentionMeasure::record_failure

use capsules::{CapsuleRuntime, CapsuleStep};
use pmem::{PAddr, PThread};
use rcas::{CasEvidence, RcasSpace};

use crate::normalized::CasDesc;

/// What a fast capsule's *propose* step decided.
pub enum Proposal<R> {
    /// Attempt this CAS.
    Cas(CasDesc),
    /// No CAS needed: the operation is complete (final boundary emitted).
    Done(R),
    /// The operation left the fast path by itself (a boundary to a slow pc
    /// has been emitted).
    Demoted,
}

/// How the CAS handed to *finish* ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// Another process won the word.
    Lost,
    /// The CAS succeeded and its target is persisted.
    Won,
    /// A crash interrupted the capsule after the CAS took effect; the CAS is
    /// rebuilt from the evidence and its target re-persisted.
    Recovered,
}

impl Attempt {
    /// Whether the CAS is part of the structure (now or before the crash).
    pub fn took_effect(self) -> bool {
        self != Attempt::Lost
    }
}

/// Crash triage of a fast capsule, from the announcement line alone: returns
/// `Some(evidence)` when the crash interrupted *this* operation's
/// evidence-carrying CAS and that CAS took effect; `None` means no durable
/// effect escaped and the capsule may simply run again. Either way the
/// runtime's sequence number is raised past every announced attempt, so no
/// sequence number is ever reused.
fn recover_fast(rt: &mut CapsuleRuntime<'_, '_>, space: &RcasSpace) -> Option<CasEvidence> {
    let t = rt.thread();
    // Honour the sharding contract: a recovering process re-runs the notify
    // step for its own announcement group before consulting its own state.
    let _ = space.help_group(t);
    let ann = space.announcement(t);
    if ann.seq <= rt.seq() {
        return None; // crash hit before this op announced anything
    }
    rt.sync_seq(ann.seq);
    let ev = space.evidence(t)?;
    // Announced but never took durable effect: retry.
    (ev.result.seq == ann.seq && space.recover(t, ev.x).flag).then_some(ev)
}

/// Run one fast capsule (module docs). `persist` is the simulator's flush
/// discipline for a CAS target; `slow_pc` the entry of the fully checkpointed
/// state machine. Returns `Done` once *propose* or *finish* completed the
/// operation, `Continue` after a demotion boundary.
pub(crate) fn fast_capsule<R>(
    rt: &mut CapsuleRuntime<'_, '_>,
    space: &RcasSpace,
    persist: impl Fn(&PThread<'_>, PAddr),
    slow_pc: u32,
    mut propose: impl FnMut(&mut CapsuleRuntime<'_, '_>) -> Proposal<R>,
    mut finish: impl FnMut(&mut CapsuleRuntime<'_, '_>, &CasDesc, Attempt) -> Option<R>,
) -> CapsuleStep<R> {
    if rt.crashed() {
        if let Some(ev) = recover_fast(rt, space) {
            // The original flush of the target may have been interrupted.
            persist(rt.thread(), ev.x);
            let cas = CasDesc::new(ev.x, ev.expected, ev.new).with_aux(ev.aux);
            if let Some(out) = finish(rt, &cas, Attempt::Recovered) {
                return CapsuleStep::Done(out);
            }
        }
    }
    loop {
        let cas = match propose(rt) {
            Proposal::Cas(cas) => cas,
            Proposal::Done(out) => return CapsuleStep::Done(out),
            Proposal::Demoted => return CapsuleStep::Continue,
        };
        let seq = rt.advance_seq();
        let won =
            space.cas_with_evidence(rt.thread(), cas.obj, cas.expected, cas.new, seq, cas.aux);
        if won {
            rt.contention_mut().record_success();
            persist(rt.thread(), cas.obj);
        }
        let attempt = if won { Attempt::Won } else { Attempt::Lost };
        if let Some(out) = finish(rt, &cas, attempt) {
            return CapsuleStep::Done(out);
        }
        if !won && rt.contention_mut().record_failure() {
            // Contended: hand the operation to the full simulator.
            rt.boundary(slow_pc);
            return CapsuleStep::Continue;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CasReadSimulator;
    use capsules::{BoundaryStyle, ContentionMeasure};
    use pmem::{install_quiet_crash_hook, CrashPlan, PMem};

    const FAST: u32 = 7;
    const SLOW: u32 = 1;
    const DONE: u32 = 2;

    /// A fetch-and-increment as one fast capsule; the old value rides `aux`.
    fn fast_increment(
        sim: &CasReadSimulator,
        rt: &mut CapsuleRuntime<'_, '_>,
        x: PAddr,
        mut interfere: impl FnMut(),
    ) -> Option<u64> {
        rt.run_op(FAST, |rt| match rt.pc() {
            FAST => sim.fast_capsule(
                rt,
                SLOW,
                |rt| {
                    let v = sim.read(rt, x);
                    interfere();
                    Proposal::Cas(CasDesc::new(x, v, v + 1).with_aux(v))
                },
                |rt, cas, _| {
                    rt.set_local(0, cas.aux);
                    rt.finish_boundary(DONE);
                    Some(cas.aux)
                },
            ),
            SLOW => CapsuleStep::Done(None),
            DONE => CapsuleStep::Done(Some(rt.local(0))),
            pc => unreachable!("pc {pc}"),
        })
    }

    #[test]
    fn every_crash_point_of_a_fast_capsule_is_exactly_once() {
        install_quiet_crash_hook();
        let run = |plan: Option<CrashPlan>| {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let space = RcasSpace::with_default_layout(&t, 1);
            let x = space.create(&t, 0).addr();
            let sim = CasReadSimulator::new(space);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
            let _ = t.take_stats();
            if let Some(plan) = plan {
                t.set_crash_schedule(plan);
            }
            let olds: Vec<_> = (0..3).map(|_| fast_increment(&sim, &mut rt, x, || {})).collect();
            let points = t.stats().crash_points;
            t.disarm_crashes();
            assert_eq!(olds, [Some(0), Some(1), Some(2)]);
            assert_eq!(space.read(&t, x), 3);
            points
        };
        for k in 0..run(None) {
            run(Some(CrashPlan::once(k)));
            run(Some(CrashPlan::new(vec![k, 0])));
        }
    }

    #[test]
    fn a_tripped_measure_demotes_through_a_boundary_to_the_slow_pc() {
        let mem = PMem::with_threads(2);
        let (t, peer) = (mem.thread(0), mem.thread(1));
        let space = RcasSpace::with_default_layout(&t, 2);
        let x = space.create(&t, 0).addr();
        let sim = CasReadSimulator::new(space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
        rt.set_contention(ContentionMeasure::new().with_threshold(1));
        let before = rt.metrics().boundaries;
        // A peer moves the word between the proposal's read and its CAS.
        let bump = || assert!(space.cas_anonymous(&peer, x, 0, 40));
        assert_eq!(fast_increment(&sim, &mut rt, x, bump), None, "finished by the slow pc");
        let m = rt.metrics();
        assert_eq!((m.demotions, m.boundaries - before), (1, 2), "entry + demotion boundary");
        assert_eq!(space.read(&t, x), 40, "the lost CAS left no effect");
    }
}
