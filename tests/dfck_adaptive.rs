//! dfck coverage for the contention-adaptive fast path (DESIGN.md §11).
//!
//! The adaptive capsule variants route every uncontended operation through a
//! plain-CAS fast path that writes minimal durable evidence, and demote to the
//! full capsule simulator when the contention policy trips. That split creates
//! three new crash surfaces the exhaustive sweeps must pin:
//!
//! * **(a) mid-fast-path, before the evidence write** — covered by the
//!   single-thread sweeps: with the fast path on (the default), every
//!   operation runs fast, so the full `k = 0..N` enumeration necessarily
//!   crashes before, inside, and after the evidence write. `fast_ops > 0` in
//!   the report proves the fast route was actually swept (counted, never
//!   guessed).
//! * **(b) the fast→slow demotion boundary** and **(c) slow-path helping
//!   after a fast-path success** — demotion needs a genuinely lost CAS, i.e.
//!   instruction-level interleaving, and the production policy (two
//!   consecutive losses) never trips inside the short scheduled windows. The
//!   sensitized workloads ([`bench::dfck::ConcWorkload::sensitized`]) inject a
//!   threshold-1 policy so *any* lost fast-path CAS demotes; the interleaved
//!   (seed × crash point) sweep then crashes every victim instruction —
//!   including the demotion boundary itself and the slow-path window that
//!   runs after the same replay's earlier fast-path successes.
//!   `demotions > 0` proves the boundary was reached.
//!
//! All three sites are swept under both crash flavours (per-process PPM and
//! full-system cache-dropping), and the slow-path-pinned workloads keep the
//! simulator-only route's single-thread coverage alive now that the fast
//! path is the default.

use bench::dfck::{build, conc_replay, sweep, sweep_interleaved, sweep_system, Shape, Variant,
    Workload};
use bench::sweep::VictimPlans;
use capsules::CapsuleMetrics;
use pmem::{MemConfig, Mode, PMem};
use structs::{MapConfig, StructOp};

/// The queues, stacks and maps of both capsule constructions.
fn adaptive_variants() -> Vec<Variant> {
    Variant::swept().into_iter().filter(|v| v.adaptive_capable()).collect()
}

/// The capsule counters of one handle running `ops` uncontended.
fn metrics_of(variant: Variant, ops: &[StructOp]) -> CapsuleMetrics {
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
    let t = mem.thread(0);
    let built = build(variant, &t, 1, MapConfig::tiny(), 0, true, None);
    let mut h = built.handle(&t);
    for &op in ops {
        h.apply(op);
    }
    h.capsule_metrics().expect("a capsule variant")
}

/// Site (a): with the fast path on (default), the single-thread pair sweep
/// enumerates every crash point of the fast route — including the points
/// before the durable evidence write — and passes the exactly-once oracle
/// under both crash flavours. `fast_ops > 0` proves the fast path ran;
/// `demotions == 0` proves an uncontended replay never demotes, i.e. the
/// coverage really is of the *fast* route, not the simulator.
#[test]
fn adaptive_fast_path_survives_every_single_thread_crash_point() {
    for variant in adaptive_variants() {
        for (flavour, report) in [
            ("ppm", sweep(variant, &variant.shape().pair(), None)),
            ("system", sweep_system(variant, &variant.shape().pair(), None)),
        ] {
            assert!(
                report.passed(),
                "{} pair/{flavour} adaptive sweep: {:?}",
                report.variant.label(),
                report.violations
            );
            assert!(report.crash_points > 0);
            assert!(
                report.fast_ops > 0,
                "{}/{flavour}: fast path never ran — site (a) not covered",
                report.variant.label()
            );
            assert_eq!(
                report.demotions, 0,
                "{}/{flavour}: an uncontended single-thread sweep must not demote",
                report.variant.label()
            );
        }
    }
}

/// The slow-path-pinned workloads keep dedicated simulator-route coverage:
/// with the fast path off, the same sweep exercises only the full capsule
/// machinery (`fast_ops == 0`), so the simulator's crash surface does not
/// regress behind the now-default fast route.
#[test]
fn slow_path_workloads_pin_the_simulator_route() {
    for variant in adaptive_variants() {
        let w = variant.shape().pair().slow_path();
        assert!(w.name.ends_with("-slow"));
        for (flavour, report) in
            [("ppm", sweep(variant, &w, None)), ("system", sweep_system(variant, &w, None))]
        {
            assert!(
                report.passed(),
                "{} {}/{flavour}: {:?}",
                report.variant.label(),
                w.name,
                report.violations
            );
            assert_eq!(
                report.fast_ops, 0,
                "{}/{flavour}: slow-path workload must not touch the fast route",
                report.variant.label()
            );
        }
    }
}

/// Sites (b) and (c): the sensitized (threshold-1) interleaved sweep demotes
/// at least one operation per replayed schedule, and the victim's full crash
/// point range — which the engine enumerates exhaustively — therefore crashes
/// the fast→slow demotion boundary and the slow-path window that follows the
/// replay's earlier fast-path successes. Checked per adaptive variant under
/// both crash flavours; the linearization oracle plus the detectable
/// exactly-once checks must hold at every cell.
#[test]
fn sensitized_interleaved_sweeps_crash_the_demotion_boundary() {
    for variant in adaptive_variants() {
        let w = variant.shape().conc_pair(2).sensitized();
        assert!(w.name.ends_with("-trip1"));
        for system in [false, true] {
            let report = sweep_interleaved(variant, &w, &[1], &[], system);
            assert!(
                report.passed(),
                "{} {} (system={system}): {:?}",
                variant.label(),
                w.name,
                report.violations
            );
            assert!(report.crash_points > 0);
            assert!(
                report.fast_ops > 0,
                "{} (system={system}): site (c) needs fast-path successes in the window",
                variant.label()
            );
            assert!(
                report.demotions > 0,
                "{} (system={system}): the sensitized policy must demote — \
                 sites (b)/(c) not covered",
                variant.label()
            );
        }
    }
}

/// The sensitized replay is as deterministic as every other scheduled replay:
/// same (variant, workload, seed, plan, flavour) tuple ⇒ bit-identical record,
/// including the new fast-path/demotion telemetry.
#[test]
fn sensitized_replays_are_deterministic_and_demote() {
    for variant in adaptive_variants() {
        let w = variant.shape().conc_pair(2).sensitized();
        let r = conc_replay(variant, &w, 1, &VictimPlans::baseline(1), false);
        let again = conc_replay(variant, &w, 1, &VictimPlans::baseline(1), false);
        assert_eq!(r, again, "{variant:?}: sensitized replay must be deterministic");
        assert!(r.counts.demotions > 0, "{variant:?}: threshold-1 pair interleaving must demote");
        assert!(r.counts.fast_ops > 0, "{variant:?}: the non-demoted ops stay on the fast path");
    }
}

/// The production-threshold interleaved rows stay green too — and since the
/// default policy's two-loss streak never trips inside the queues' and maps'
/// short windows, their telemetry shows all-fast execution (the stack is one
/// hot word: two pids do lose twice in a row there, so its default rows
/// demote). This is the "interleaved 2-thread row per adaptive variant" of
/// the default matrix, pinned here so the bin's default output can't silently
/// lose it.
#[test]
fn default_policy_interleaved_rows_stay_all_fast() {
    for variant in adaptive_variants() {
        let w = variant.shape().conc_pair(2);
        let report = sweep_interleaved(variant, &w, &[1], &[], false);
        assert!(report.passed(), "{} {}: {:?}", variant.label(), w.name, report.violations);
        assert!(report.fast_ops > 0, "{}: adaptive default must run fast", variant.label());
        if variant.shape() == Shape::Lifo {
            continue;
        }
        assert_eq!(
            report.demotions, 0,
            "{}: production threshold tripped in a short window — update DESIGN.md §11 \
             and the sensitized-row rationale if the policy changed",
            variant.label()
        );
    }
}

/// Uncontended, every writing operation of the one-CAS structures enters
/// through its fast capsule — the no-CAS outcomes (empty pop, present key)
/// included. A map `Contains` is read-only: it runs outside the frame and
/// counts as neither fast nor slow.
#[test]
fn one_cas_structures_run_every_uncontended_op_fast() {
    for variant in adaptive_variants().into_iter().filter(|v| v.shape() != Shape::Fifo) {
        let ops = variant.shape().pair().ops;
        let reads = ops.iter().filter(|op| is_read(op)).count() as u64;
        let m = metrics_of(variant, &ops);
        assert_eq!(m.operations, ops.len() as u64, "{}", variant.label());
        assert_eq!(m.fast_ops, m.operations - reads, "{}", variant.label());
    }
    assert!(Workload::map_resize().ops.iter().any(is_read));
}

fn is_read(op: &StructOp) -> bool {
    matches!(op, StructOp::Contains(_))
}

/// The list set is held back — its fast path and its boundary-free
/// `Contains` both wait for fault-count headroom in `dfbench`'s smoke suite
/// (DESIGN.md §8, §11): neither default may flip silently.
#[test]
fn the_list_set_stays_on_the_slow_path() {
    for variant in [Variant::SetGeneral, Variant::SetNormalized] {
        assert!(!variant.adaptive_capable());
        let ops = Workload::set_pair().ops;
        let m = metrics_of(variant, &ops);
        assert_eq!((m.operations, m.fast_ops), (2, 0), "{}", variant.label());
        let read = metrics_of(variant, &[ops, vec![StructOp::Contains(15)]].concat());
        assert!(
            read.boundaries - m.boundaries >= 2,
            "{}: a set `Contains` keeps its entry and final boundaries",
            variant.label()
        );
    }
}
