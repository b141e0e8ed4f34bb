#[cfg(test)]
mod tests {
    //! The test suite of the General map ([`crate::GeneralDetMap`]).

    use crate::api::{testkit, StructHandle, StructOp};
    use crate::map::{contains_routed, resize_published, GeneralDetMap, MapConfig, MapOp};
    use crate::node::NODE_WORDS;
    use capsules::{BoundaryStyle, CapsuleRuntime, ContentionMeasure};
    use delayfree::NormalizedOp;
    use delayfree::Simulator;
    use pmem::PThread;
    use StructOp::{Contains, Insert, Remove};

    fn styled(t: &PThread<'_>, cfg: MapConfig, compact: bool) -> GeneralDetMap {
        GeneralDetMap::new(t, 1, cfg, true, BoundaryStyle::opt(compact))
    }

    #[test]
    fn insert_remove_contains_single_thread_both_styles() {
        testkit::keyed_single_thread(
            |t, flag| styled(t, MapConfig::new(4, 64), flag),
            GeneralDetMap::len,
        );
    }

    #[test]
    fn growth_migrates_every_key_under_capsules() {
        testkit::keyed_growth(|t| styled(t, MapConfig::tiny(), false));
    }

    #[test]
    fn operations_survive_random_crashes_across_resizes() {
        let build = |t: &PThread<'_>, flag| styled(t, MapConfig::tiny(), flag);
        testkit::keyed_random_crashes(build, &[false], 43, (400, 7, 29));
    }

    #[test]
    fn manual_durability_survives_full_system_crash_mid_growth() {
        let ops: Vec<StructOp> = (0..30).map(Insert).chain([Remove(11)]).collect();
        let expect: Vec<u64> = (0..30).filter(|&k| k != 11).collect();
        let build = |t: &PThread<'_>| styled(t, MapConfig::tiny(), false);
        testkit::survives_full_system_crash(build, &ops, &expect, false);
    }

    /// The scripted window *crosses a resize* (tiny config: the inserts push
    /// the chain past max_chain = 3), so crash points land in the migration
    /// too — through the fast capsules (the default), then the slow machine.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact_across_a_resize() {
        for adaptive in [true, false] {
            testkit::exhaustive_crash_point_sweep(
                |t| styled(t, MapConfig::tiny(), false).with_adaptive(adaptive),
                &[Insert(10), Insert(20), Insert(30)],
                &[
                    Insert(15),
                    Insert(25),
                    Insert(15),
                    Remove(10),
                    Contains(15),
                    Remove(99),
                ],
                (
                    vec![Some(1), Some(1), Some(0), Some(1), Some(1), Some(0)],
                    vec![15, 20, 25, 30],
                ),
            );
        }
    }

    /// A restart after a fast insert, or a fast remove, returned: the next
    /// operations on the re-attached handle — crashed at each of their
    /// points, both frame styles — must not mistake the returned operation's
    /// evidence for their own; the first links its key on the word the
    /// returned operation's CAS changed.
    #[test]
    fn crash_point_sweep_after_a_restart_is_exact() {
        let inserted = [Insert(10), Insert(30)];
        let removed = [Insert(10), Insert(20), Insert(30), Remove(20)];
        for (flag, prefill) in [
            (false, &inserted[..]),
            (true, &inserted),
            (false, &removed),
            (true, &removed),
        ] {
            testkit::crash_point_sweep_after_restart(
                |t| styled(t, MapConfig::new(1, 64), flag),
                prefill,
                &[Insert(20), Remove(10)],
                (vec![Some(1), Some(1)], vec![20, 30]),
            );
        }
    }

    /// Kill a fast insert — the one whose chain measure calls for a resize —
    /// at each of its crash points and look at the machine as recovery finds
    /// it (both frame styles and crash flavours): the key is linked exactly
    /// once, reported `true` once, and the resize is published even when the
    /// crash fell between the link CAS and the final boundary, where the
    /// `ChainLen` survives only in the evidence's `aux` word.
    #[test]
    fn fast_insert_killed_at_any_point_links_once_and_still_triggers_its_resize() {
        let tiny = MapConfig::tiny();
        let published = |s: &GeneralDetMap, t: &PThread<'_>| {
            resize_published(&s.sim.mem(t), s.dir, tiny.initial_buckets)
        };
        // The first key whose insert publishes a resize, found by a dry run.
        let trigger = {
            let mem = pmem::PMem::with_threads(1);
            let t = mem.thread(0);
            let s = styled(&t, tiny, false);
            let mut h = s.handle(&t);
            (1..)
                .find(|&k| h.apply(Insert(k)) == Some(1) && published(&s, &t))
                .unwrap()
        };
        // Ends on a `Remove` of an absent key (a `Contains` leaves the frame
        // alone), so a frame that never entered the insert is told apart from
        // a completed one by its pc.
        let prefill: Vec<StructOp> = (1..trigger).map(Insert).chain([Remove(0)]).collect();
        for (compact, system) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut after_cas = 0;
            for k in 0.. {
                let build = |t: &PThread<'_>| styled(t, tiny, compact);
                let seen =
                    testkit::die_at(build, system, &prefill, Insert(trigger), k, |s, t, h| {
                        let pc = h.runtime_mut().pc();
                        let linked = contains_routed(&s.sim.mem(t), s.dir, trigger);
                        let insert = MapOp(s, Insert(trigger));
                        let got = match insert.frame().owns(pc) {
                            true => s.sim.resume(h.runtime_mut(), &insert, &()).0,
                            false => h.apply(Insert(trigger)) == Some(1),
                        };
                        assert!(got, "compact={compact} system={system} k={k} pc={pc}");
                        assert!(
                            published(s, t),
                            "k={k} pc={pc}: the resize trigger was lost"
                        );
                        let again = [Insert(trigger), Remove(trigger), Remove(trigger)]
                            .map(|op| h.apply(op));
                        assert_eq!(
                            again,
                            [Some(0), Some(1), Some(0)],
                            "k={k}: linked exactly once"
                        );
                        pc == insert.frame().fast_pc() && linked
                    });
                match seen {
                    None => break,
                    Some(fast_after_cas) => after_cas += fast_after_cas as u32,
                }
            }
            assert!(after_cas > 0, "compact={compact} system={system}");
        }
    }

    /// A fast insert returns with no final boundary; killing the next
    /// operation — in its entry boundary above all — leaves a frame that
    /// still names it, and resuming it from its evidence answers `true`
    /// again with the key linked once.
    #[test]
    fn a_fast_insert_killed_after_return_resumes_from_its_evidence() {
        let resume = |s: &GeneralDetMap, rt: &mut CapsuleRuntime<'_, '_>, op| {
            let op = MapOp(s, op);
            let resumed = op.frame().owns(rt.pc());
            resumed.then(|| Some(s.sim.resume(rt, &op, &()).0 as u64))
        };
        let build = |t: &PThread<'_>, compact| styled(t, MapConfig::new(1, 64), compact);
        let (prefill, insert) = ([Insert(1), Insert(3)], (Insert(5), Some(1)));
        let expect = (Some(1), vec![1, 5]);
        testkit::resume_after_return(build, &prefill, insert, Remove(3), resume, expect);
    }

    /// Two scheduled pids insert at the head of one chain through a trip-1
    /// policy: every lost fast CAS demotes its insert, which must re-enter
    /// its search capsule, abandon the fast node and still link exactly once.
    #[test]
    fn trip1_demotion_reenters_the_slow_insert_and_abandons_the_fast_node() {
        let trip1 = ContentionMeasure::new().with_threshold(1);
        // Descending keys: every insert's window is the bucket head.
        let keys = |pid: u64| (0..6).map(move |i| 1000 - 2 * i - pid);
        let ops = |pid: u64| keys(pid).map(Insert).collect::<Vec<_>>();
        let mut demotions = 0;
        for seed in 1..=6 {
            let build = |t: &PThread<'_>, n| {
                let cfg = MapConfig::new(1, 64);
                GeneralDetMap::new(t, n, cfg, true, BoundaryStyle::General).with_contention(trip1)
            };
            let (pids, left) = testkit::scheduled_pair(build, ops, seed);
            let mut expect: Vec<u64> = keys(0).chain(keys(1)).collect();
            expect.sort_unstable();
            assert_eq!(left.items, expect, "seed {seed}");
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
