//! Cross-crate integration tests for the `dfck` exhaustive crash-point sweeper:
//! every queue variant, every crash point of an enqueue/dequeue pair, single and
//! nested (crash-during-recovery) schedules, checked against the exactly-once /
//! durable-linearizability oracle. The crash-point counts come from
//! [`pmem::Stats::crash_points`], so the sweeps automatically track any change to
//! the instruction footprint of the queues.

use bench::dfck::{sweep, sweep_plan, sweep_system, Shape, Variant, Workload};
use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
use pmem::{CrashPlan, PMem};
use queues::{Durability, GeneralQueue, NormalizedQueue, QueueHandle};

fn queue_variants() -> impl Iterator<Item = Variant> {
    Variant::swept().into_iter().filter(|v| v.shape() == Shape::Fifo)
}

#[test]
fn every_variant_passes_the_pair_sweep_at_every_crash_point() {
    for variant in queue_variants() {
        let report = sweep(variant, &Workload::pair(), None);
        assert!(
            report.passed(),
            "{} pair sweep: {:?}",
            report.variant.label(),
            report.violations
        );
        // The range really was enumerated (one injected crash per swept point),
        // and the count came from Stats, not a constant.
        assert!(report.crash_points > 0);
        assert_eq!(report.replays, report.crash_points + 1);
        assert!(report.crashes_injected >= report.crash_points);
    }
}

#[test]
fn every_variant_passes_the_nested_crash_during_recovery_sweep() {
    for variant in queue_variants() {
        let report = sweep(variant, &Workload::pair(), Some(0));
        assert!(
            report.passed(),
            "{} nested sweep: {:?}",
            report.variant.label(),
            report.violations
        );
        if variant.detectable() {
            assert!(
                report.recovery_crashes > 0,
                "{}: no nested crash landed inside recovery",
                report.variant.label()
            );
        }
    }
}

/// Full-system crash sweeps (every injected crash also rolls unflushed cache
/// lines back) for **every** variant: since the recoverable-CAS layer adopted
/// the durable-announcement flush discipline (DESIGN.md §7), the capsule
/// variants pass alongside MSQ-Izraelevitz and LogQueue. Each replay also runs
/// with the flush-order auditor armed; `passed()` covers its flags too.
#[test]
fn system_crash_pair_sweep_passes_for_every_variant() {
    for variant in queue_variants() {
        for nested in [None, Some(0)] {
            let report = sweep_system(variant, &Workload::pair(), nested);
            assert!(
                report.passed(),
                "{} system sweep (nested={nested:?}): {:?}",
                report.variant.label(),
                report.violations
            );
            assert!(report.crash_points > 0);
            assert_eq!(report.audit_flags, 0);
            if variant.detectable() && nested.is_some() {
                assert!(
                    report.recovery_crashes > 0,
                    "{}: no nested crash landed inside recovery",
                    report.variant.label()
                );
            }
        }
    }
}

/// Depth-2 nested schedules (`[k, m, n]`: crash at point `k`, again `m` points
/// into the triggered recovery, and a third time `n` points into the
/// recovery-of-recovery), smoke-tested on the two recovery disciplines the
/// issue names: the LogQueue's log-replay recovery and the Normalized
/// simulator's frame recovery — under per-process *and* full-system crashes.
#[test]
fn depth2_nested_crash_schedules_pass_on_log_queue_and_normalized() {
    for variant in [Variant::LogQueue, Variant::Normalized] {
        for system in [false, true] {
            let report = sweep_plan(variant, &Workload::pair(), &[0, 0], system);
            assert!(
                report.passed(),
                "{} depth-2 sweep (system={system}): {:?}",
                report.variant.label(),
                report.violations
            );
            // Three schedule elements per replay: the nested elements must
            // actually have interrupted recovery (recovery-of-recovery runs).
            assert!(
                report.recovery_crashes > report.crash_points,
                "{} (system={system}): depth-2 schedules should interrupt recovery \
                 more than once per swept point ({} vs {})",
                report.variant.label(),
                report.recovery_crashes,
                report.crash_points
            );
        }
    }
}

#[test]
fn seeded_multi_op_sweep_is_exact_for_detectable_variants() {
    let workload = Workload::seeded(7, 6);
    for variant in [Variant::General, Variant::Normalized, Variant::LogQueue] {
        let report = sweep(variant, &workload, None);
        assert!(
            report.passed(),
            "{} multi sweep: {:?}",
            report.variant.label(),
            report.violations
        );
    }
}

/// Deterministic regression for the recovery-interrupted path of
/// `CapsuleRuntime::run_op` at the queue level, for both the CAS-Read (General)
/// and Normalized constructions: a scripted `CrashPlan` crashes inside an
/// enqueue and then again at the first instruction of the resulting recovery;
/// the operation must still be exactly-once and the nested crash must be
/// visible in `CapsuleMetrics::recovery_crashes`.
#[test]
fn nested_crash_during_recovery_is_invisible_for_both_simulators() {
    pmem::install_quiet_crash_hook();
    #[derive(Clone, Copy)]
    enum Which {
        General,
        Normalized,
    }
    // Run the scenario on a fresh machine: enqueue(1), then enqueue(2) with the
    // given crash schedule, then enqueue(3); returns the drained history, the
    // crash count, and the crash points the schedule-window enqueue consumed
    // crash-free (so the caller can derive a mid-operation crash point from
    // Stats instead of hard-coding one).
    let run = |which: Which, plan: Option<CrashPlan>| -> (Vec<u64>, u64, u64) {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let general;
        let normalized;
        let mut h: Box<dyn QueueHandle + '_> = match which {
            Which::General => {
                general = GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General);
                Box::new(general.handle(&t))
            }
            Which::Normalized => {
                normalized = NormalizedQueue::new(&t, 1, Durability::Manual, false);
                Box::new(normalized.handle(&t))
            }
        };
        h.enqueue(1);
        let _ = t.take_stats();
        if let Some(p) = plan {
            t.set_crash_schedule(p);
        }
        h.enqueue(2);
        let window = t.stats();
        t.disarm_crashes();
        h.enqueue(3);
        (h.drain(), t.stats().crashes, window.crash_points)
    };
    for (which, label) in [(Which::General, "General"), (Which::Normalized, "Normalized")] {
        // Learn where "mid-enqueue" is from the crash-free run, then crash
        // there and again at the first instruction of the triggered recovery.
        let (history, _, points) = run(which, None);
        assert_eq!(history, vec![1, 2, 3], "{label}: crash-free baseline");
        let k = points / 2;
        let (history, crashes, _) = run(which, Some(CrashPlan::new(vec![k, 0])));
        assert_eq!(history, vec![1, 2, 3], "{label}: history must be exact");
        assert_eq!(crashes, 2, "{label}: both crashes must have fired");
    }
    // The metrics-level assertion needs runtime access, which `QueueHandle`
    // does not expose; check it for the General queue directly, again deriving
    // the crash point from a crash-free measurement.
    let probe = PMem::with_threads(1);
    let t = probe.thread(0);
    let q = GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General);
    let mut h = q.handle(&t);
    let _ = t.take_stats();
    h.enqueue(1);
    let k = t.stats().crash_points / 2;
    let mem = PMem::with_threads(1);
    let t = mem.thread(0);
    let q = GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General);
    let mut h = q.handle(&t);
    t.set_crash_schedule(CrashPlan::new(vec![k, 0]));
    h.enqueue(1);
    t.disarm_crashes();
    let metrics = h.runtime_mut().metrics();
    assert!(metrics.recoveries >= 1);
    assert_eq!(
        metrics.recovery_crashes, 1,
        "the second schedule element must interrupt the recovery itself"
    );
}

/// The capsule runtime's own nested-recovery counter, driven through the raw
/// `run_op` API (mirrors runtime.rs's recovery-interrupted retry loop).
#[test]
fn run_op_survives_arbitrarily_deep_nested_recovery_crashes() {
    pmem::install_quiet_crash_hook();
    let mem = PMem::with_threads(1);
    let t = mem.thread(0);
    let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
    rt.set_local(0, 7);
    // One crash in the body, then five consecutive crashes each hitting the
    // first instruction of a recovery attempt.
    t.set_crash_schedule(CrashPlan::new(vec![10, 0, 0, 0, 0, 0]));
    let out = rt.run_op(0, |rt| {
        let probe = rt.thread().alloc(1);
        for _ in 0..8 {
            let _ = rt.thread().read(probe);
        }
        CapsuleStep::Done(rt.local(0))
    });
    t.disarm_crashes();
    assert_eq!(out, 7);
    assert_eq!(rt.metrics().recovery_crashes, 5);
}
