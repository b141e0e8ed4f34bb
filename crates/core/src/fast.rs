//! The contention-adaptive fast capsule, written once for both simulators.
//!
//! A single-CAS operation needs no checkpoint between its reads and its CAS
//! once recovery can tell from durable state whether the CAS happened (§7).
//! [`RcasSpace::cas_with_evidence`] leaves exactly that state on the caller's
//! announcement line, so an uncontended normalized operation runs as *one*
//! capsule ([`fast_op`]):
//!
//! 1. after a crash, triage from the announcement line ([`recover_fast`]): if
//!    this operation's CAS took effect, re-persist its target and run the
//!    wrap-up from the evidence; otherwise nothing durable escaped and the
//!    capsule simply runs again;
//! 2. loop { generator → the evidence-carrying CAS → persist its target →
//!    wrap-up }, demoting to the simulator's slow entry pc through a boundary
//!    when [`ContentionMeasure::record_failure`] trips.
//!
//! The generator is parallelizable, so a node it allocates is simply
//! abandoned by a retry, a crash or a demotion; the wrap-up must be
//! repeat-safe, as a crash before the operation retires runs it again from the
//! evidence. Whatever the wrap-up needs beyond the CAS itself rides
//! [`CasDesc::aux`]: the evidence carries the word durably, so the frame needs
//! no slot for it.
//!
//! When its CAS took effect the operation returns with **no** final boundary.
//! The evidence on the announcement line already names the operation durably
//! — seq, target, expected, new and `aux` — so it *is* the operation's result
//! until the next entry boundary persists the advanced sequence number and so
//! retires it; a restart in between resumes the operation from the evidence
//! (triage step 1). This leans on entry boundaries
//! ([`CapsuleRuntime::retire_at_next_entry`]), and the target's flush is
//! fenced before returning even where the `-Opt` style dropped that fence.
//! Outcomes no evidence names — no CAS at all, a lost CAS the wrap-up still
//! answers, the slow path — keep their final boundary.
//!
//! [`ContentionMeasure::record_failure`]: capsules::ContentionMeasure::record_failure

use capsules::{CapsuleRuntime, CapsuleStep};
use rcas::{CasEvidence, RcasSpace};

use crate::normalized::{CasDesc, CasList, Discipline, Next, NormalizedOp, WrapUp};

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

/// The fast capsule of a normalized operation, for both simulators (module
/// docs). `slow_pc` is the entry of the fully checkpointed placement; `done`
/// keeps a result in the frame — unless the CAS took effect and the next
/// entry boundary retires the operation instead; `multi` takes a list of two
/// or more CASes off the fast path, emitting the boundary to a slow pc.
/// Returns `Done` once the wrap-up answered, `Continue` after a demotion.
pub(crate) fn fast_op<O: NormalizedOp>(
    rt: &mut CapsuleRuntime<'_, '_>,
    d: Discipline<'_>,
    slow_pc: u32,
    op: &O,
    input: &O::Input,
    done: impl Fn(&mut CapsuleRuntime<'_, '_>, O::Output),
    multi: impl FnOnce(&mut CapsuleRuntime<'_, '_>, CasList),
) -> CapsuleStep<O::Output> {
    let wrap_up = |rt: &mut CapsuleRuntime<'_, '_>, list: &CasList, executed| {
        let verdict = op.wrap_up(&mut d.ctx(rt, Next::Own), input, list, executed);
        let WrapUp::Done(out) = verdict else {
            return None;
        };
        // A CAS that took effect is the operation's durable result: its
        // evidence names it until the next entry boundary retires it. An
        // outcome no evidence names keeps its final boundary.
        if executed == 1 && rt.retire_at_next_entry() {
            d.fence_dropped(rt.thread());
        } else {
            done(rt, out);
        }
        Some(out)
    };
    if rt.crashed() {
        if let Some(ev) = recover_fast(rt, d.space) {
            // The original flush of the target may have been interrupted.
            d.persist_target(rt.thread(), ev.x);
            let cas = CasDesc::new(ev.x, ev.expected, ev.new).with_aux(ev.aux);
            if let Some(out) = wrap_up(rt, &vec![cas], 1) {
                return CapsuleStep::Done(out);
            }
        }
    }
    loop {
        let list = op.generator(&mut d.ctx(rt, Next::Cas), input);
        let cas = match list[..] {
            [] => match wrap_up(rt, &list, 0) {
                Some(out) => return CapsuleStep::Done(out),
                None => continue,
            },
            [cas] => cas,
            _ => {
                multi(rt, list);
                return CapsuleStep::Continue;
            }
        };
        let seq = rt.advance_seq();
        let (t, space) = (rt.thread(), d.space);
        let won = space.cas_with_evidence(t, cas.obj, cas.expected, cas.new, seq, cas.aux);
        if won {
            rt.contention_mut().record_success();
            d.persist_target(t, cas.obj);
        }
        if let Some(out) = wrap_up(rt, &list, won as usize) {
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
    use crate::{CasReadSimulator, NormalizedCtx, Simulator};
    use capsules::{BoundaryStyle, ContentionMeasure};
    use pmem::{install_quiet_crash_hook, CrashPlan, PAddr, PMem};

    /// A fetch-and-increment declared once; the old value rides `aux`, and
    /// `interfere` runs between the generator's read and its CAS.
    struct Increment<F>(PAddr, F);

    impl<F: Fn()> NormalizedOp for Increment<F> {
        type Input = ();
        type Output = u64;

        fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _: &()) -> CasList {
            let v = ctx.read(self.0);
            (self.1)();
            vec![CasDesc::new(self.0, v, v + 1).with_aux(v)]
        }

        fn wrap_up(
            &self,
            _: &mut NormalizedCtx<'_, '_, '_>,
            _: &(),
            list: &CasList,
            executed: usize,
        ) -> WrapUp<u64> {
            match executed {
                1 => WrapUp::Done(list[0].aux),
                _ => WrapUp::Restart,
            }
        }
    }

    /// The fast §6 placement with the default frame of five locals.
    fn fast_sim(space: RcasSpace) -> CasReadSimulator {
        CasReadSimulator::new(space).with_adaptive(true)
    }

    #[test]
    fn every_crash_point_of_a_fast_capsule_is_exactly_once() {
        install_quiet_crash_hook();
        let run = |plan: Option<CrashPlan>| {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let space = RcasSpace::with_default_layout(&t, 1);
            let x = space.create(&t, 0).addr();
            let sim = fast_sim(space);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 5);
            let _ = t.take_stats();
            let label = format!("{plan:?}");
            if let Some(plan) = plan {
                t.set_crash_schedule(plan);
            }
            let olds: Vec<_> = (0..3)
                .map(|_| sim.run(&mut rt, &Increment(x, || {}), &()))
                .collect();
            let points = t.stats().crash_points;
            t.disarm_crashes();
            assert_eq!((olds, space.read(&t, x)), (vec![0, 1, 2], 3), "{label}");
            let m = rt.metrics();
            assert_eq!((m.fast_ops, m.demotions), (3, 0), "{label}");
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
        let sim = fast_sim(space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 5);
        rt.set_contention(ContentionMeasure::new().with_threshold(1));
        let before = rt.metrics().boundaries;
        // A peer moves the word between the fast proposal's read and its CAS
        // (and fails harmlessly on every later proposal).
        let bump = || {
            let _ = space.cas_anonymous(&peer, x, 0, 40);
        };
        let old = sim.run(&mut rt, &Increment(x, bump), &());
        assert_eq!(old, 40, "finished by the slow placement");
        let m = rt.metrics();
        assert_eq!(
            (m.demotions, m.boundaries - before),
            (1, 4),
            "entry + demotion boundary, then the slow read-only and CAS-Read capsules' own"
        );
        assert_eq!(space.read(&t, x), 41, "the lost CAS left no effect");
    }
}
