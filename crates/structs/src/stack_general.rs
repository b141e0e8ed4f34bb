#[cfg(test)]
mod tests {
    //! The test suite of the General stack ([`crate::GeneralStack`]).

    use crate::api::{testkit, StructHandle, StructOp};
    use crate::node::NODE_WORDS;
    use crate::stack::{GeneralStack, StackOp};
    use capsules::{BoundaryStyle, CapsuleRuntime, ContentionMeasure};
    use delayfree::{NormalizedOp, Simulator};
    use pmem::PThread;
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

    /// A restart after a fast push, or a fast pop, returned: the next
    /// operations on the re-attached handle — crashed at each of their
    /// points, both frame styles — must not mistake the returned
    /// operation's evidence for their own.
    #[test]
    fn crash_point_sweep_after_a_restart_is_exact() {
        let pushed = [Push(1), Push(2)];
        let popped = [Push(1), Push(2), Push(3), Pop];
        for (compact, prefill) in [
            (false, &pushed[..]),
            (true, &pushed),
            (false, &popped),
            (true, &popped),
        ] {
            testkit::crash_point_sweep_after_restart(
                |t| styled(t, 1, compact),
                prefill,
                &[Pop, Push(4)],
                (vec![Some(2), None], vec![4, 1]),
            );
        }
    }

    /// Kill a fast pop at each of its crash points and look at the machine
    /// as recovery finds it (both frame styles, per-process and full-system
    /// crashes): whatever the point, the pop takes effect exactly once — in
    /// particular from the evidence's `aux` word when the crash fell between
    /// the CAS and the final boundary (the value's local was never persisted), and by
    /// plainly re-running the capsule, nothing durable having escaped, when
    /// it fell before the announcement.
    #[test]
    fn fast_pop_killed_at_any_point_pops_exactly_once() {
        for (compact, system) in [(false, false), (false, true), (true, false), (true, true)] {
            let (mut unannounced, mut after_cas) = (0, 0);
            for k in 0.. {
                let build = |t: &PThread<'_>| styled(t, 1, compact);
                let seen =
                    testkit::die_at(build, system, &[Push(1), Push(2)], Pop, k, |s, t, h| {
                        let pc = h.runtime_mut().pc();
                        let swung = s.len(t) == 1;
                        let announced = s.sim.space().announcement(t).seq > h.runtime_mut().seq();
                        // A frame still at the last push's done pc never entered the pop.
                        let pop = StackOp(s, Pop);
                        let got = match pop.frame().owns(pc) {
                            true => s.sim.resume(h.runtime_mut(), &pop, &()).0,
                            false => h.apply(Pop),
                        };
                        assert_eq!(
                            got,
                            Some(2),
                            "compact={compact} system={system} k={k} pc={pc}"
                        );
                        assert_eq!((h.apply(Pop), h.apply(Pop)), (Some(1), None), "k={k}");
                        (pc == pop.frame().fast_pc(), swung, announced)
                    });
                match seen {
                    None => break,
                    Some((true, false, false)) => unannounced += 1,
                    Some((true, true, announced)) => {
                        assert!(announced, "k={k}: the CAS follows its announcement");
                        after_cas += 1;
                    }
                    Some(_) => {}
                }
            }
            assert!(
                unannounced > 0 && after_cas > 0,
                "compact={compact} system={system}"
            );
        }
    }

    /// A fast push or pop returns with no final boundary; killing the next
    /// operation — in its entry boundary above all — leaves a frame that
    /// still names it, and resuming it from its evidence answers it again
    /// without doing it twice.
    #[test]
    fn a_fast_op_killed_after_return_resumes_from_its_evidence() {
        let resume = |s: &GeneralStack, rt: &mut CapsuleRuntime<'_, '_>, op| {
            let op = StackOp(s, op);
            let resumed = op.frame().owns(rt.pc());
            resumed.then(|| s.sim.resume(rt, &op, &()).0)
        };
        let build = |t: &PThread<'_>, compact| styled(t, 1, compact);
        let push = (Push(2), None);
        testkit::resume_after_return(build, &[Push(1)], push, Pop, resume, (Some(2), vec![1]));
        let pop = (Pop, Some(2));
        let prefill = [Push(1), Push(2)];
        testkit::resume_after_return(build, &prefill, pop, Push(3), resume, (None, vec![3, 1]));
    }

    /// Two scheduled pids push through a trip-1 policy: every lost fast CAS
    /// demotes its push, which must re-enter its read-only capsule, abandon the fast
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
            assert_eq!(
                items,
                values(0).chain(values(1)).collect::<Vec<_>>(),
                "seed {seed}"
            );
            for pid in &pids {
                testkit::assert_demotions_reentered_the_slow_machine(pid, NODE_WORDS);
                demotions += pid.0.demotions;
            }
        }
        assert!(
            demotions > 0,
            "the scheduled interleavings must lose a fast CAS"
        );
    }
}
