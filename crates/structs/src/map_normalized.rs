#[cfg(test)]
mod tests {
    //! The test suite of the Normalized map ([`crate::NormalizedDetMap`]).

    use crate::api::{testkit, StructOp};
    use crate::map::{MapConfig, NormalizedDetMap};
    use pmem::PThread;
    use StructOp::{Contains, Insert, Remove};

    fn styled(t: &PThread<'_>, cfg: MapConfig, optimised: bool) -> NormalizedDetMap {
        NormalizedDetMap::new(t, 1, cfg, true, optimised)
    }

    #[test]
    fn insert_remove_contains_single_thread_both_variants() {
        testkit::keyed_single_thread(
            |t, flag| styled(t, MapConfig::new(4, 64), flag),
            NormalizedDetMap::len,
        );
    }

    #[test]
    fn growth_migrates_every_key_under_the_simulator() {
        testkit::keyed_growth(|t| styled(t, MapConfig::tiny(), false));
    }

    #[test]
    fn operations_survive_random_crashes_across_resizes() {
        let build = |t: &PThread<'_>, flag| styled(t, MapConfig::tiny(), flag);
        testkit::keyed_random_crashes(build, &[false, true], 53, (300, 11, 23));
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
    /// points, both variants — must not mistake the returned operation's
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
}
