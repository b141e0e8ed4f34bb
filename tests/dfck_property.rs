//! Property-based `dfck` workloads: sample (seed, op count, prefill, value
//! base) with the deterministic proptest strategies, build a
//! [`Workload::seeded_full`] from each case, and require the exhaustive
//! crash-point sweep to pass. On a violation the assertion message carries the
//! full sampled tuple, so the failing workload is reproducible with
//! `Workload::seeded_full(seed, ops, prefill, base)` (or `DF_DFCK_SEED`/
//! `DF_DFCK_OPS` on the `dfck` binary for the default prefill).
//!
//! Each case is a full sweep (one replay per crash point), so the case budget
//! is capped below the proptest default; `PROPTEST_CASES` can lower it further
//! but not raise it past the cap (CI time budget).

use bench::dfck::{sweep, sweep_system, Shape, Variant, Workload};
use proptest::prelude::*;

/// Upper bound on sampled property cases (each one is a whole sweep).
const MAX_CASES: u32 = 12;

/// Deterministically sample `n` workload parameter tuples.
fn sample_cases(n: u32) -> Vec<(u64, usize, usize, u64)> {
    let strategy = (1u64..1 << 48, 3usize..9, 0usize..5, 0u64..1 << 20);
    let mut rng = TestRng::deterministic();
    (0..n)
        .map(|case| strategy.sample(&mut rng, case))
        .collect()
}

#[test]
fn sampled_workloads_pass_the_sweep_on_rotating_detectable_variants() {
    let variants = [
        Variant::General,
        Variant::GeneralOpt,
        Variant::Normalized,
        Variant::NormalizedOpt,
        Variant::LogQueue,
    ];
    for (case, &(seed, ops, prefill, base)) in sample_cases(cases().min(MAX_CASES))
        .iter()
        .enumerate()
    {
        let workload = Workload::seeded_full(seed, ops, prefill, base);
        // Rotate the variant per case so the budget covers the whole family,
        // alternating per-process and full-system crash semantics.
        let variant = variants[case % variants.len()];
        let report = if case % 2 == 0 {
            sweep(variant, &workload, None)
        } else {
            sweep_system(variant, &workload, None)
        };
        prop_assert!(
            report.passed(),
            "failing workload: Workload::seeded_full({seed}, {ops}, {prefill}, {base}) \
             on {} (case {case}, system={}): {:?}",
            variant.label(),
            case % 2 == 1,
            report.violations
        );
        prop_assert!(report.crash_points > 0);
    }
}

#[test]
fn sampled_workloads_pass_the_struct_sweep_on_rotating_variants() {
    // The structure family under the same discipline: every sampled tuple
    // builds a stack- and a set-shaped workload via the `seeded_full`
    // generators, swept on a rotating variant, alternating PPM and
    // full-system crash semantics. Failure messages carry the tuple so the
    // case reproduces with `Workload::{stack,set}_seeded_full(...)`.
    let variants = [
        Variant::StackGeneral,
        Variant::StackNormalized,
        Variant::SetGeneral,
        Variant::SetNormalized,
        Variant::MapGeneral,
        Variant::MapNormalized,
        Variant::StackIzraelevitz,
        Variant::SetIzraelevitz,
        Variant::MapIzraelevitz,
    ];
    for (case, &(seed, ops, prefill, base)) in sample_cases(cases().min(MAX_CASES))
        .iter()
        .enumerate()
    {
        let variant = variants[case % variants.len()];
        // Maps share the set's op alphabet, so the set generator drives them
        // too — on the tiny bucket array, where the sampled inserts trip
        // resizes mid-sweep.
        let stack = variant.shape() == Shape::Lifo;
        let workload = if stack {
            Workload::seeded_full(seed, ops, prefill, base)
        } else {
            Workload::set_seeded_full(seed, ops, prefill, base)
        };
        let report = if case % 2 == 0 {
            sweep(variant, &workload, None)
        } else {
            sweep_system(variant, &workload, None)
        };
        prop_assert!(
            report.passed(),
            "failing workload: {}_seeded_full({seed}, {ops}, {prefill}, {base}) \
             on {} (case {case}, system={}): {:?}",
            if stack { "stack" } else { "set" },
            variant.label(),
            case % 2 == 1,
            report.violations
        );
        prop_assert!(report.crash_points > 0);
    }
}

#[test]
fn sampled_workloads_pass_the_nested_system_sweep_on_the_msq() {
    // The non-detectable variant runs under the forked-model oracle; sample a
    // couple of workloads through the nested full-system schedules too.
    for &(seed, ops, prefill, base) in sample_cases(cases().min(4)).iter() {
        let workload = Workload::seeded_full(seed, ops, prefill, base);
        let report = sweep_system(Variant::IzraelevitzMsq, &workload, Some(0));
        prop_assert!(
            report.passed(),
            "failing workload: Workload::seeded_full({seed}, {ops}, {prefill}, {base}): {:?}",
            report.violations
        );
    }
}
