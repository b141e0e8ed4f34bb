#[cfg(test)]
mod tests {
    //! The test suite of the General queue ([`crate::GeneralQueue`]).

    use crate::api::{testkit, Durability, QueueHandle};
    use crate::GeneralQueue;
    use capsules::BoundaryStyle;
    use pmem::{PMem, PThread};

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
    fn a_new_handle_after_a_restart_announces_past_the_old_seqs() {
        testkit::new_handle_after_restart(|t, compact| styled(t, 1, compact));
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
