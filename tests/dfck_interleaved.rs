//! Cross-crate integration tests for the *interleaved* dfck sweep: queue and
//! structure variants driven by 2–4 scheduled processes under the
//! deterministic [`pmem`] thread scheduler, with the crash-point sweep
//! generalized from (crash point) to (interleaving seed × crash point). The
//! tests pin the three properties the layer promises:
//!
//! 1. **Determinism** — the same (seed, workload, crash plan) reproduces a
//!    bit-identical replay record (timed history, drain, scheduler
//!    fingerprint, crash bookkeeping).
//! 2. **Coverage** — distinct seeds produce distinct interleavings (the
//!    seeded budget perturbation actually moves the preemption points).
//! 3. **Correctness** — bounded full sweeps pass the linearization oracle
//!    with zero violations and zero audit flags, under per-process and
//!    full-system crashes, single and nested — including the multi-victim
//!    sweeps where a co-victim pid crashes in the same replay, and the
//!    4-thread full-system path where the scheduler delivers the kill to
//!    parked peers at their next yield (skipping peers whose `FinishGuard`
//!    already deregistered them).

use std::collections::BTreeSet;

use bench::dfck::{
    conc_replay, sweep_interleaved, sweep_interleaved_multi, ConcWorkload, Shape, Variant,
};
use bench::sweep::VictimPlans;
use pmem::CrashPlan;

/// The same (variant, workload, seed, victim, plan, system) tuple must
/// reproduce the replay record exactly — history timestamps, drain order,
/// scheduler fingerprint, and every crash counter. Checked crash-free and
/// with a scripted mid-operation crash, under both crash semantics.
#[test]
fn scheduled_replays_are_bit_identical_for_the_same_seed() {
    let w = ConcWorkload::pair(2);
    for variant in [Variant::IzraelevitzMsq, Variant::General, Variant::LogQueue] {
        for system in [false, true] {
            let baseline = conc_replay(variant, &w, 5, &VictimPlans::baseline(1), system);
            let again = conc_replay(variant, &w, 5, &VictimPlans::baseline(1), system);
            assert_eq!(baseline, again, "{variant:?} (system={system}): crash-free replay");
            // Crash the victim mid-window at a point the baseline proved
            // reachable, and require the same determinism.
            let k = baseline.victim_crash_points / 2;
            let plans = VictimPlans::scripted(1, CrashPlan::nested(k, &[]));
            let crashed = conc_replay(variant, &w, 5, &plans, system);
            let crashed_again = conc_replay(variant, &w, 5, &plans, system);
            assert_eq!(
                crashed, crashed_again,
                "{variant:?} (system={system}): crashed replay at k={k}"
            );
            assert!(crashed.victim_crashes >= 1, "{variant:?}: the scripted crash must fire");
        }
    }
}

/// The structure-side scheduled replay has the same determinism guarantee,
/// including at three scheduled processes.
#[test]
fn scheduled_struct_replays_are_bit_identical_for_the_same_seed() {
    for threads in [2usize, 3] {
        let stack = ConcWorkload::pair(threads);
        let set = ConcWorkload::set_pair(threads);
        for (variant, w) in [
            (Variant::StackGeneral, &stack),
            (Variant::SetNormalized, &set),
        ] {
            let victim = threads - 1;
            let baseline = conc_replay(variant, w, 9, &VictimPlans::baseline(victim), true);
            let again = conc_replay(variant, w, 9, &VictimPlans::baseline(victim), true);
            assert_eq!(baseline, again, "{variant:?} t{threads}: crash-free replay");
            let k = baseline.victim_crash_points / 2;
            let plans = VictimPlans::scripted(victim, CrashPlan::nested(k, &[]));
            let crashed = conc_replay(variant, w, 9, &plans, true);
            let crashed_again = conc_replay(variant, w, 9, &plans, true);
            assert_eq!(crashed, crashed_again, "{variant:?} t{threads}: crashed replay");
        }
    }
}

/// Eight seeds must produce eight *distinct* interleavings (scheduler trace
/// fingerprints) for every queue variant and for the structure family's
/// representative — the seeded budget perturbation is the whole point of the
/// seed dimension, so colliding fingerprints would silently collapse the
/// sweep's coverage.
#[test]
fn eight_seeds_yield_eight_distinct_interleavings_per_variant() {
    let seeds: Vec<u64> = (1..=8).collect();
    let w = ConcWorkload::pair(2);
    for variant in Variant::swept().into_iter().filter(|v| v.shape() == Shape::Fifo) {
        let fingerprints: BTreeSet<u64> = seeds
            .iter()
            .map(|&s| {
                conc_replay(variant, &w, s, &VictimPlans::baseline((s % 2) as usize), false)
                    .fingerprint
            })
            .collect();
        assert_eq!(
            fingerprints.len(),
            seeds.len(),
            "{variant:?}: seeds must map to distinct interleavings"
        );
    }
    let sw = ConcWorkload::pair(2);
    let fingerprints: BTreeSet<u64> = seeds
        .iter()
        .map(|&s| {
            conc_replay(
                Variant::StackGeneral,
                &sw,
                s,
                &VictimPlans::baseline((s % 2) as usize),
                false,
            )
            .fingerprint
        })
        .collect();
    assert_eq!(fingerprints.len(), seeds.len(), "Stack-General: distinct interleavings");
}

/// Three scheduled processes: distinct seeds still give distinct
/// interleavings, and each replay is reproducible (the sweep matrix defaults
/// to two threads; this pins the 3-thread path the library entry points
/// take as an argument).
#[test]
fn three_thread_replays_are_deterministic_and_seed_sensitive() {
    let w = ConcWorkload::pair(3);
    let seeds: Vec<u64> = (1..=4).collect();
    let fingerprints: BTreeSet<u64> = seeds
        .iter()
        .map(|&s| {
            let plans = VictimPlans::baseline((s % 3) as usize);
            let r = conc_replay(Variant::General, &w, s, &plans, false);
            let again = conc_replay(Variant::General, &w, s, &plans, false);
            assert_eq!(r, again, "seed {s}: 3-thread replay must be deterministic");
            r.fingerprint
        })
        .collect();
    assert_eq!(fingerprints.len(), seeds.len());
}

/// Bounded full interleaved sweeps — every (seed × crash point) cell — pass
/// the linearization oracle for the non-detectable MSQ, the detectable
/// LogQueue, and the detectable Stack-General, under per-process and
/// full-system crashes.
#[test]
fn bounded_interleaved_sweeps_pass_the_linearization_oracle() {
    let seeds = [1u64, 2];
    let w = ConcWorkload::pair(2);
    for variant in [Variant::IzraelevitzMsq, Variant::LogQueue] {
        for system in [false, true] {
            let report = sweep_interleaved(variant, &w, &seeds, &[], system);
            assert!(
                report.passed(),
                "{variant:?} (system={system}): {:?}",
                report.violations
            );
            assert_eq!(report.audit_flags, 0);
            assert_eq!(report.distinct_interleavings, seeds.len() as u64);
            assert!(report.crash_points > 0);
            // One crash-free baseline plus one replay per crash point, per seed.
            assert_eq!(report.replays, report.crash_points + seeds.len() as u64);
            assert!(report.crashes_injected >= report.crash_points);
            // Single-victim sweeps never touch a co-victim.
            assert_eq!(report.covictim_gap, None);
            assert_eq!(report.covictim_crashes, 0);
        }
    }
    let sw = ConcWorkload::pair(2);
    for system in [false, true] {
        let report = sweep_interleaved(Variant::StackGeneral, &sw, &seeds, &[], system);
        assert!(
            report.passed(),
            "Stack-General (system={system}): {:?}",
            report.violations
        );
        assert_eq!(report.audit_flags, 0);
        assert_eq!(report.distinct_interleavings, seeds.len() as u64);
        assert!(report.recoveries > 0, "detectable variant must run recovery actions");
    }
}

/// The structure variants the interleaved matrix gained with the unified
/// engine — Stack-Normalized and both detectable sets — swept over two seeds
/// under single and nested schedules and both crash flavours (the bin's
/// default matrix runs the same cells over eight seeds).
#[test]
fn bounded_interleaved_sweeps_pass_for_the_normalized_stack_and_the_sets() {
    let seeds = [1u64, 2];
    for (variant, w) in [
        (Variant::StackNormalized, ConcWorkload::pair(2)),
        (Variant::SetGeneral, ConcWorkload::set_pair(2)),
        (Variant::SetNormalized, ConcWorkload::set_pair(2)),
    ] {
        for (nested, system) in [(&[] as &[u64], false), (&[], true), (&[0], false), (&[0], true)] {
            let report = sweep_interleaved(variant, &w, &seeds, nested, system);
            assert!(
                report.passed(),
                "{variant:?} (nested={nested:?} system={system}): {:?}",
                report.violations
            );
            assert_eq!((report.audit_flags, report.hb_flags), (0, 0));
            assert_eq!(report.distinct_interleavings, seeds.len() as u64);
            assert!(report.crash_points > 0);
            assert!(report.recoveries > 0, "detectable variant must run recovery actions");
            if !nested.is_empty() {
                assert!(report.recovery_crashes > 0, "{variant:?}: nested crash missed recovery");
            }
        }
    }
}

/// Nested (crash-during-recovery) schedules compose with the scheduled
/// window: a detectable variant swept with `[k, 0]` plans must interrupt its
/// own recovery and still pass the oracle.
#[test]
fn nested_crash_schedules_compose_with_scheduling() {
    let w = ConcWorkload::pair(2);
    let report = sweep_interleaved(Variant::General, &w, &[3], &[0], true);
    assert!(report.passed(), "General nested /system: {:?}", report.violations);
    assert!(
        report.recovery_crashes > 0,
        "the nested schedule element must land inside recovery"
    );
}

/// Multi-victim replays: a co-victim pid armed with its own single-crash plan
/// fires in the same scheduled replay as the victim's scripted crash, the
/// record is bit-reproducible, and the bounded sweep still passes the
/// exactly-once linearization oracle with both schedules verified live.
#[test]
fn multi_victim_sweeps_crash_two_pids_and_pass_the_oracle() {
    let w = ConcWorkload::pair(2);
    // Replay-level: both pids crash in one deterministic replay.
    let plans = VictimPlans::scripted(0, CrashPlan::once(2)).with_covictim(1, CrashPlan::once(2));
    let r = conc_replay(Variant::General, &w, 4, &plans, false);
    let again = conc_replay(Variant::General, &w, 4, &plans, false);
    assert_eq!(r, again, "multi-victim replay must be deterministic");
    assert!(r.victim_crashes >= 1, "victim plan must fire");
    assert!(r.counts.covictim_crashes >= 1, "co-victim plan must fire");
    // Sweep-level: every (seed × crash point) cell with a co-victim crash in
    // the mix passes the oracle, and the engine counted the co-victim fires.
    let seeds = [1u64, 2];
    for variant in [Variant::General, Variant::LogQueue] {
        let report = sweep_interleaved_multi(variant, &w, &seeds, &[], 2, false);
        assert!(report.passed(), "{variant:?} /mv: {:?}", report.violations);
        assert_eq!(report.covictim_gap, Some(2));
        assert!(
            report.covictim_crashes > 0,
            "{variant:?}: co-victim schedule never fired"
        );
        assert!(
            report.crashes_injected > report.crash_points,
            "{variant:?}: two-pid replays must inject more crashes than a single-victim sweep"
        );
    }
}

/// Four scheduled threads, full-system crash: the scheduler must deliver the
/// kill to every *parked* peer at its next yield — the victim's crash raises
/// [`pmem::CrashSignal`] on the three peers through the scheduler, so the
/// whole replay records more crashed pids than the victim alone — and the
/// delivery is bit-deterministic.
#[test]
fn four_thread_system_crash_kills_parked_peers_at_their_next_yield() {
    let w = ConcWorkload::pair(4);
    let baseline = conc_replay(Variant::General, &w, 11, &VictimPlans::baseline(0), true);
    assert_eq!(baseline.counts.crashes, 0);
    let k = baseline.victim_crash_points / 2;
    let plans = VictimPlans::scripted(0, CrashPlan::nested(k, &[]));
    let crashed = conc_replay(Variant::General, &w, 11, &plans, true);
    let again = conc_replay(Variant::General, &w, 11, &plans, true);
    assert_eq!(crashed, again, "4-thread kill delivery must be deterministic");
    assert!(crashed.victim_crashes >= 1, "the scripted crash must fire");
    assert!(
        crashed.counts.crashes > crashed.victim_crashes,
        "a full-system crash at 4 threads must kill parked peers too \
         (victim {} vs total {})",
        crashed.victim_crashes,
        crashed.counts.crashes
    );
    // Exactly-once still holds: the detectable variant completes every
    // operation despite three peers being killed mid-window.
    assert!(
        crashed.history.iter().all(|t| t.end != u64::MAX),
        "a detectable variant must complete every operation"
    );
}

/// Four scheduled threads, crash scripted at the victim's *last* crash point:
/// by then some peers have finished their windows and deregistered via the
/// scheduler's `FinishGuard` — kill delivery must skip them (or the replay
/// would hang waiting on a finished thread) and still satisfy the oracle.
/// Swept both mid-window and at the boundary for determinism.
#[test]
fn four_thread_kill_delivery_skips_finished_peers() {
    let w = ConcWorkload::pair(4);
    let baseline = conc_replay(Variant::General, &w, 13, &VictimPlans::baseline(2), true);
    let n = baseline.victim_crash_points;
    assert!(n > 1);
    for k in [n - 1, n / 2] {
        let plans = VictimPlans::scripted(2, CrashPlan::nested(k, &[]));
        let crashed = conc_replay(Variant::General, &w, 13, &plans, true);
        let again = conc_replay(Variant::General, &w, 13, &plans, true);
        assert_eq!(crashed, again, "k={k}: late-window kill must be deterministic");
        assert!(crashed.victim_crashes >= 1, "k={k}: the scripted crash must fire");
        assert!(
            crashed.counts.crashes <= 4,
            "k={k}: each pid can crash at most once for a single scripted system crash"
        );
    }
}

/// Distinct seeds stay distinct at four scheduled threads (the fingerprint
/// check of the 2-thread matrix, at the widest scheduled width the kill-path
/// tests use).
#[test]
fn four_thread_fingerprints_are_seed_sensitive() {
    let w = ConcWorkload::pair(4);
    let seeds: Vec<u64> = (1..=6).collect();
    let fingerprints: BTreeSet<u64> = seeds
        .iter()
        .map(|&s| {
            conc_replay(Variant::General, &w, s, &VictimPlans::baseline((s % 4) as usize), false)
                .fingerprint
        })
        .collect();
    assert_eq!(fingerprints.len(), seeds.len(), "4-thread interleavings must stay distinct");
}
