//! Cross-crate integration tests for the exhaustive crash-point sweeper
//! (`bench::dfck`) on the structure family: Treiber stack, linked-list
//! set and bucketed hash map, every variant, every crash point of the
//! canonical pair workloads (resize-crossing for the maps),
//! single and nested (crash-during-recovery) schedules, per-process *and*
//! full-system crash semantics, happens-before analyzer armed — mirroring
//! `tests/dfck_sweep.rs` for the non-queue shapes.

use bench::dfck::{sweep, sweep_plan, sweep_system, Shape, Variant, Workload};
use capsules::BoundaryStyle;
use pmem::PMem;
use structs::{
    GeneralSet, GeneralStack, ListSet, NormalizedSet, NormalizedStack, StructHandle,
    TreiberStack,
};

fn struct_variants() -> impl Iterator<Item = Variant> {
    Variant::swept().into_iter().filter(|v| v.shape() != Shape::Fifo)
}

#[test]
fn every_struct_variant_passes_the_pair_sweep_at_every_crash_point() {
    for variant in struct_variants() {
        let report = sweep(variant, &variant.shape().pair(), None);
        assert!(
            report.passed(),
            "{} pair sweep: {:?}",
            report.variant.label(),
            report.violations
        );
        // The range really was enumerated (count from Stats, not a constant).
        assert!(report.crash_points > 0);
        assert_eq!(report.replays, report.crash_points + 1);
        assert!(report.crashes_injected >= report.crash_points);
    }
}

#[test]
fn every_struct_variant_passes_the_nested_crash_during_recovery_sweep() {
    for variant in struct_variants() {
        let report = sweep(variant, &variant.shape().pair(), Some(0));
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

/// Full-system crash sweeps: every injected crash also rolls unflushed cache
/// lines back, so the sweep verifies the stack's and the set's flush
/// placement (node-before-publish, mark/link targets after) on top of the
/// recoverable-CAS layer's durable-announcement discipline. The armed
/// happens-before analyzer's flags count as violations via `passed()`.
#[test]
fn system_crash_pair_sweep_passes_for_every_struct_variant() {
    for variant in struct_variants() {
        for nested in [None, Some(0)] {
            let report = sweep_system(variant, &variant.shape().pair(), nested);
            assert!(
                report.passed(),
                "{} system sweep (nested={nested:?}): {:?}",
                report.variant.label(),
                report.violations
            );
            assert!(report.crash_points > 0);
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

/// Depth-2 nested schedules on the two detectable constructions of each
/// shape's hardest protocol: the set's two-CAS remove (General) and the
/// stack's simulator path (Normalized), under both crash flavours.
#[test]
fn depth2_nested_crash_schedules_pass_on_set_general_and_stack_normalized() {
    for (variant, workload) in [
        (Variant::SetGeneral, Workload::set_pair()),
        (Variant::StackNormalized, Workload::pair()),
    ] {
        for system in [false, true] {
            let report = sweep_plan(variant, &workload, &[0, 0], system);
            assert!(
                report.passed(),
                "{} depth-2 sweep (system={system}): {:?}",
                report.variant.label(),
                report.violations
            );
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

/// Crash-free op-for-op equivalence across each shape's three constructions
/// (the structure-family mirror of `tests/queue_equivalence.rs`): identical
/// seeded scripts must yield identical returns and identical final drains on
/// the plain, General and Normalized implementations.
#[test]
fn all_three_constructions_of_each_shape_agree_op_for_op() {
    for shape_is_stack in [true, false] {
        let w = if shape_is_stack {
            Workload::seeded(11, 40)
        } else {
            Workload::set_seeded(11, 40)
        };
        let run = |which: usize| -> (Vec<Option<u64>>, Vec<u64>) {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let plain_stack;
            let general_stack;
            let normalized_stack;
            let plain_set;
            let general_set;
            let normalized_set;
            let mut h: Box<dyn StructHandle + '_> = match (shape_is_stack, which) {
                (true, 0) => {
                    plain_stack = TreiberStack::new(&t);
                    Box::new(plain_stack.handle(&t))
                }
                (true, 1) => {
                    general_stack = GeneralStack::new(&t, 1, true, BoundaryStyle::General);
                    Box::new(general_stack.handle(&t))
                }
                (true, _) => {
                    normalized_stack = NormalizedStack::new(&t, 1, true, false);
                    Box::new(normalized_stack.handle(&t))
                }
                (false, 0) => {
                    plain_set = ListSet::new(&t);
                    Box::new(plain_set.handle(&t))
                }
                (false, 1) => {
                    general_set = GeneralSet::new(&t, 1, true, BoundaryStyle::General);
                    Box::new(general_set.handle(&t))
                }
                (false, _) => {
                    normalized_set = NormalizedSet::new(&t, 1, true, false);
                    Box::new(normalized_set.handle(&t))
                }
            };
            for &v in &w.prefill {
                let _ = h.apply(if shape_is_stack {
                    structs::StructOp::Push(v)
                } else {
                    structs::StructOp::Insert(v)
                });
            }
            let rets: Vec<Option<u64>> = w.ops.iter().map(|&op| h.apply(op)).collect();
            let drained = h.drain_up_to(w.prefill.len() + w.ops.len() + 1);
            assert!(!drained.truncated);
            (rets, drained.items)
        };
        let reference = run(0);
        for which in 1..3 {
            assert_eq!(
                run(which),
                reference,
                "construction {which} diverges from plain (stack={shape_is_stack})"
            );
        }
    }
}

#[test]
fn seeded_multi_op_sweep_is_exact_for_detectable_struct_variants() {
    for variant in [
        Variant::StackGeneral,
        Variant::StackNormalized,
        Variant::SetGeneral,
        Variant::SetNormalized,
        Variant::MapGeneral,
        Variant::MapNormalized,
    ] {
        let workload = if variant.shape() == Shape::Lifo {
            Workload::seeded(7, 6)
        } else {
            Workload::set_seeded(7, 6)
        };
        let report = sweep(variant, &workload, None);
        assert!(
            report.passed(),
            "{} multi sweep: {:?}",
            report.variant.label(),
            report.violations
        );
    }
}
