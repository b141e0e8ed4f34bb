#[cfg(test)]
mod tests {
    //! The test suite of the Normalized stack ([`crate::NormalizedStack`]).

    use crate::api::{testkit, StructOp};
    use crate::stack::NormalizedStack;
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

    /// A restart after a fast push, or a fast pop, returned: the next
    /// operations on the re-attached handle — crashed at each of their
    /// points, both variants — must not mistake the returned operation's
    /// evidence for their own.
    #[test]
    fn crash_point_sweep_after_a_restart_is_exact() {
        let pushed = [Push(1), Push(2)];
        let popped = [Push(1), Push(2), Push(3), Pop];
        for (optimised, prefill) in [
            (false, &pushed[..]),
            (true, &pushed),
            (false, &popped),
            (true, &popped),
        ] {
            testkit::crash_point_sweep_after_restart(
                |t| NormalizedStack::new(t, 1, true, optimised),
                prefill,
                &[Pop, Push(4)],
                (vec![Some(2), None], vec![4, 1]),
            );
        }
    }
}
