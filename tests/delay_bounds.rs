//! Cross-crate integration test: the delay bounds the paper proves, checked
//! empirically on the simulator's instruction counters.
//!
//! * computation delay — the transformed queues execute at most a constant factor
//!   more instructions per operation than the untransformed MSQ, and the factor
//!   does not grow with the number of operations (Theorem 5.1 / 6.2 / 7.1),
//! * recovery delay — recovery of a transformed queue takes the same number of
//!   instructions whether the queue holds 10 elements or 5 000, whereas the
//!   LogQueue's recovery grows linearly (the §10 discussion). The step counts
//!   are deterministic, so the table S2 they form is pinned exactly.

use capsules::BoundaryStyle;
use delayfree::{DelayReport, Handle, RecoveryProbe, Simulator};
use pmem::{MemConfig, Mode, PMem, PThread};
use queues::{
    CapsuleQueue, Durability, GeneralQueue, LogQueue, MsQueue, NormalizedQueue, QueueHandle,
};

fn steps_per_op<H: QueueHandle>(mem: &PMem, mut handle: H, ops: u64) -> (pmem::Stats, u64) {
    let t = mem.thread(0);
    let before = t.stats();
    for i in 0..ops {
        handle.enqueue(i);
        let _ = handle.dequeue();
    }
    (mem.thread(0).stats().since(&before), ops * 2)
}

#[test]
fn computation_delay_is_a_constant_factor() {
    for ops in [200u64, 2_000] {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let msq = MsQueue::new(&t);
        let (base_stats, base_ops) = steps_per_op(&mem, msq.handle(&t), ops);

        let general = GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General);
        let (gen_stats, gen_ops) = steps_per_op(&mem, general.handle(&t), ops);
        let gen_report = DelayReport::compare(&base_stats, base_ops, &gen_stats, gen_ops);

        let normalized = NormalizedQueue::new(&t, 1, Durability::Manual, false);
        let (norm_stats, norm_ops) = steps_per_op(&mem, normalized.handle(&t), ops);
        let norm_report = DelayReport::compare(&base_stats, base_ops, &norm_stats, norm_ops);

        // Constant-factor bound: generous ceiling, but crucially independent of `ops`.
        assert!(
            gen_report.computation_delay < 20.0,
            "general delay {} too large",
            gen_report.computation_delay
        );
        assert!(
            norm_report.computation_delay < 20.0,
            "normalized delay {} too large",
            norm_report.computation_delay
        );
        // The normalized transformation is the cheaper of the two (fewer boundaries).
        assert!(
            norm_report.simulated_steps_per_op <= gen_report.simulated_steps_per_op,
            "normalized ({}) should not exceed general ({})",
            norm_report.simulated_steps_per_op,
            gen_report.simulated_steps_per_op
        );
    }
}

#[test]
fn computation_delay_does_not_grow_with_history_length() {
    let mem = PMem::with_threads(1);
    let t = mem.thread(0);
    let q = GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General);
    let mut h = q.handle(&t);
    let window = |h: &mut dyn FnMut()| {
        let before = t.stats();
        h();
        t.stats().since(&before)
    };
    let early = window(&mut || {
        for i in 0..200 {
            h.enqueue(i);
            let _ = h.dequeue();
        }
    });
    // Run a long history, then measure again: per-op cost must be unchanged.
    for i in 0..5_000 {
        h.enqueue(i);
        let _ = h.dequeue();
    }
    let late = window(&mut || {
        for i in 0..200 {
            h.enqueue(i);
            let _ = h.dequeue();
        }
    });
    let ratio = late.steps() as f64 / early.steps() as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "per-op cost drifted with history length: ratio {ratio}"
    );
}

/// Recovery steps of the capsule queue `build` makes, holding `n` elements:
/// the steps of re-attaching a handle after a full-system crash (frame
/// reload; the recoverable CAS's recovery runs lazily inside the first
/// repeated capsule).
fn capsule_recovery_steps<S: Simulator>(
    n: u64,
    build: impl Fn(&PThread<'_>) -> CapsuleQueue<S>,
) -> u64 {
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
    let q = build(&mem.thread(0));
    {
        let t = mem.thread(0);
        let mut h = Handle::new(&q, &t);
        for i in 0..n {
            h.enqueue(i);
        }
    }
    mem.crash_all();
    let t = mem.thread(0);
    let probe = RecoveryProbe::before(&t);
    let _h = Handle::attach(&q, &t);
    probe.after(&t)
}

/// Recovery steps of a LogQueue holding `n` elements, taken across one more
/// enqueue that a full-system crash interrupts mid-flight (after its log
/// entry persisted, before it was marked done) and that the handle's own
/// recovery protocol absorbs: recovery has an in-flight operation to resolve,
/// as the capsule queues' frames always describe one.
fn log_recovery_steps(n: u64) -> u64 {
    pmem::install_quiet_crash_hook();
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache).system_crashes(true));
    let t = mem.thread(0);
    let q = LogQueue::new(&t, 1);
    let mut h = q.handle(&t);
    for i in 0..n {
        h.enqueue(i);
    }
    let before = t.stats();
    t.set_crash_policy(pmem::CrashPolicy::Countdown(13));
    h.enqueue(n);
    t.disarm_crashes();
    let stats = t.stats().since(&before);
    assert_eq!(stats.crashes, 1, "queue length {n}: the enqueue was not interrupted");
    assert_eq!(q.len(&t), n as usize + 1, "queue length {n}: the enqueue did not complete once");
    stats.recovery_steps
}

/// Supplementary table S2, pinned: the General queue recovers in 6 steps at
/// every length, while the LogQueue's recovery walks the queue: `n + 5`.
#[test]
fn transformed_queue_recovery_is_constant_logqueue_recovery_is_linear() {
    for n in [10, 100, 1_000, 5_000] {
        let steps = capsule_recovery_steps(n, |t| {
            GeneralQueue::new(t, 1, Durability::Manual, BoundaryStyle::General)
        });
        assert_eq!(steps, 6, "General, queue length {n}");
    }
    for n in [10, 100, 1_000] {
        assert_eq!(log_recovery_steps(n), n + 5, "LogQueue, queue length {n}");
    }
}

/// The Normalized queue's row of table S2: 10 steps at every length.
#[test]
fn normalized_recovery_is_also_constant() {
    for n in [10, 100, 1_000, 2_000] {
        let steps =
            capsule_recovery_steps(n, |t| NormalizedQueue::new(t, 1, Durability::Manual, false));
        assert_eq!(steps, 10, "Normalized, queue length {n}");
    }
}
