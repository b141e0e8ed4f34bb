//! Cross-crate integration tests for the detectable hash map: the
//! three-construction equivalence check (plain / General / Normalized agree
//! op-for-op across resizes) and the interleaved (schedule × crash point)
//! sweeps that race scheduled pids against the resize trigger — including a
//! three-pid multi-victim row where two processes crash in the same replay.
//!
//! The single-threaded resize-window sweeps (single, nested, PPM, system)
//! run through the structure-family sweep tests, which pick the
//! resize-crossing pair workload for every map variant; this file adds the
//! map-only checks.

use bench::dfck::{sweep_interleaved, sweep_interleaved_multi, ConcWorkload, Variant, Workload};
use capsules::BoundaryStyle;
use pmem::PMem;
use structs::{DetMap, GeneralDetMap, MapConfig, NormalizedDetMap, StructHandle};

/// Crash-free op-for-op equivalence across the map's three constructions, on
/// a seeded workload long enough that the tiny bucket array resizes several
/// times: identical returns and identical final drains, so the capsule and
/// simulator transformations provably preserve the bucketed protocol.
#[test]
fn all_three_map_constructions_agree_op_for_op_across_resizes() {
    let w = Workload::set_seeded_full(13, 60, 6, 0);
    let run = |which: usize| -> (Vec<Option<u64>>, Vec<u64>) {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let plain;
        let general;
        let normalized;
        let mut h: Box<dyn StructHandle + '_> = match which {
            0 => {
                plain = DetMap::new(&t, MapConfig::tiny());
                Box::new(plain.handle(&t))
            }
            1 => {
                general = GeneralDetMap::new(&t, 1, MapConfig::tiny(), true, BoundaryStyle::General);
                Box::new(general.handle(&t))
            }
            _ => {
                normalized = NormalizedDetMap::new(&t, 1, MapConfig::tiny(), true, false);
                Box::new(normalized.handle(&t))
            }
        };
        for &k in &w.prefill {
            let _ = h.apply(structs::StructOp::Insert(k));
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
            "map construction {which} diverges from plain"
        );
    }
}

/// Interleaved sweeps for both detectable map constructions: two scheduled
/// pids race inserts (which trip the resize trigger on the tiny bucket
/// array) and removes while the victim crashes at every enumerated point,
/// under per-process and full-system semantics plus a nested schedule.
#[test]
fn interleaved_map_sweeps_pass_for_both_detectable_constructions() {
    let w = ConcWorkload::map_pair(2);
    let seeds = [1, 2];
    for variant in [Variant::MapGeneral, Variant::MapNormalized] {
        for (nested, system) in [(&[] as &[u64], false), (&[], true), (&[0u64][..], false)] {
            let report = sweep_interleaved(variant, &w, &seeds, nested, system);
            assert!(
                report.passed(),
                "{} interleaved (nested={nested:?} system={system}): {:?}",
                report.variant.label(),
                report.violations
            );
            assert!(report.crash_points > 0);
            assert!(report.crashes_injected > 0);
            assert_eq!(report.audit_flags, 0);
        }
    }
}

/// The widest row: three scheduled pids on the General map, every replay
/// crashing the victim *and* a co-victim, so one process's capsule recovery
/// races a peer that is itself mid-recovery over a half-migrated bucket
/// array.
#[test]
fn three_pid_multi_victim_interleaved_map_sweep_is_exact() {
    let w = ConcWorkload::map_pair(3);
    let report = sweep_interleaved_multi(Variant::MapGeneral, &w, &[1, 2], &[], 3, false);
    assert!(
        report.passed(),
        "Map-General 3-pid multi-victim: {:?}",
        report.violations
    );
    assert!(report.crash_points > 0);
    assert!(
        report.covictim_crashes > 0,
        "the co-victim schedule never fired"
    );
}
