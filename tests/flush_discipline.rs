//! Regression tests for the recoverable-CAS durable flush discipline
//! (DESIGN.md §7): under full-system crashes, announcement/descriptor lines
//! must be durable *before* the publishing CAS, or `check_recovery` re-applies
//! a CAS that already took effect (the duplicate-element bug the `dfck`
//! full-system sweep exposed in PR 3, recorded in ROADMAP.md).
//!
//! The deterministic reproduction pins a [`CrashPlan`] to the exact window the
//! sweep found: *after* the publishing CAS and the caller's `persist` of the
//! object word, so the rollback keeps the installed triple durable while
//! reverting its volatile recovery evidence. The crash point is derived from a
//! crash-free measurement (never hard-coded), so the test tracks instruction
//! footprint changes automatically.

use pmem::{
    catch_crash, install_quiet_crash_hook, CrashPlan, MemConfig, Mode, PMem, PThread,
};
use queues::{Durability, GeneralQueue, NormalizedQueue, QueueHandle};
use rcas::{check_recovery, IndirectRcas, RcasSpace};

fn shared_cache(threads: usize) -> PMem {
    PMem::new(MemConfig::new(threads).mode(Mode::SharedCache))
}

/// One "increment" operation in the shape the capsule transformation produces:
/// CAS with a persisted sequence number, persist the object word, and — after a
/// crash — consult `checkRecovery` before deciding whether to re-execute; a
/// stale-expected failure restarts the operation with a fresh sequence number
/// (exactly what `GeneralQueueHandle` does via `rt.boundary(E_START)`).
fn recover_and_finish(space: &RcasSpace, t: &PThread<'_>, x: pmem::PAddr) -> u64 {
    if !check_recovery(space, t, x, 1) {
        // The protocol believes CAS #1 never happened: repeat it.
        if !space.cas(t, x, 0, 1, 1) {
            // Stale expected value — the transformed operation restarts from its
            // read capsule and retries with the next sequence number.
            let v = space.read(t, x);
            assert!(space.cas(t, x, v, v + 1, 2));
        }
    }
    t.persist(x);
    space.read(t, x)
}

/// Crash-free instruction count of `cas + persist`, measured on an identical
/// machine, so the pinned schedule fires at the first crash point *after* the
/// persist completed.
fn measure_cas_persist_points(durable: bool) -> u64 {
    let mem = shared_cache(1);
    let t = mem.thread(0);
    let space = RcasSpace::with_default_layout(&t, 1).with_durability(durable);
    let x = space.create(&t, 0).addr();
    mem.persist_everything();
    let _ = t.take_stats();
    assert!(space.cas(&t, x, 0, 1, 1));
    t.persist(x);
    t.stats().crash_points
}

/// Run the increment with a crash pinned between the persisted publish and the
/// next instruction, then a full-system power failure, then recovery, with both
/// persist-order checkers armed. Returns the final value — 1 is exactly-once, 2
/// is the duplicate — and the [`pmem::FlushAuditor`]'s and the
/// [`pmem::HbAnalyzer`]'s flag counts.
fn pinned_publish_crash_scenario(durable: bool) -> (u64, u64, u64) {
    install_quiet_crash_hook();
    let n = measure_cas_persist_points(durable);
    let mem = shared_cache(1);
    mem.flush_auditor().arm();
    mem.hb().arm();
    let t = mem.thread(0);
    let space = RcasSpace::with_default_layout(&t, 1).with_durability(durable);
    let x = space.create(&t, 0).addr();
    mem.persist_everything();
    let _ = t.take_stats();
    t.set_crash_schedule(CrashPlan::once(n));
    let outcome = catch_crash(|| {
        assert!(space.cas(&t, x, 0, 1, 1));
        t.persist(x);
        // The schedule fires here: the CAS and its persist are durable, the
        // crash hits the very next instruction.
        let _ = space.read(&t, x);
    });
    assert!(outcome.is_err(), "the pinned schedule must fire");
    t.disarm_crashes();
    mem.crash_all(); // power failure: every unflushed line rolls back
    let _ = mem.take_crashed(0);
    let value = recover_and_finish(&space, &t, x);
    (value, mem.flush_auditor().flags(), mem.hb().flags())
}

/// The descriptor/announcement flush gap, reproduced deterministically: without
/// the durable-announcement discipline the rollback reverts the announcement
/// word while the installed triple stays durable, `check_recovery` reports
/// *not done*, and the operation is applied twice.
///
/// This is also the bug class's checker test at protocol level: the auditor
/// flags the published-but-unflushed announcement line at the power failure,
/// exactly once. The happens-before analyzer does not — it tracks exposure of
/// plain words, and an announcement word is a synchronization word — which is
/// why the auditor cannot be retired yet (ROADMAP, persist-order checker item).
#[test]
fn pinned_crash_after_publish_duplicates_without_the_flush_discipline() {
    let (value, audit_flags, _) = pinned_publish_crash_scenario(false);
    assert_eq!(
        value, 2,
        "without durable announcements the pre-fix duplicate must reproduce \
         (if this now reports 1, the relaxed mode became durable and this \
         regression pin should move into the durable test)"
    );
    assert_eq!(audit_flags, 1, "the auditor must flag the unflushed announcement line");
}

/// Same pinned schedule with the discipline on: the announcement was flushed
/// before the publishing CAS, so recovery sees the success, the increment is
/// exactly-once, and both checkers stay silent.
#[test]
fn pinned_crash_after_publish_is_exactly_once_with_the_flush_discipline() {
    assert_eq!(pinned_publish_crash_scenario(true), (1, 0, 0));
}

/// The full window, not just the single pinned point: crash at *every* crash
/// point of `cas + persist` (count from Stats), roll the whole machine back,
/// recover, and require exactly-once every time.
#[test]
fn every_crash_point_of_a_durable_cas_is_exactly_once_under_system_rollback() {
    install_quiet_crash_hook();
    let n = measure_cas_persist_points(true) + 1; // +1 sweeps one point past the persist
    for k in 0..n {
        let mem = shared_cache(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1).with_durability(true);
        let x = space.create(&t, 0).addr();
        mem.persist_everything();
        let _ = t.take_stats();
        t.set_crash_schedule(CrashPlan::once(k));
        let outcome = catch_crash(|| {
            if space.cas(&t, x, 0, 1, 1) {
                t.persist(x);
            }
            let _ = space.read(&t, x);
        });
        t.disarm_crashes();
        if outcome.is_ok() {
            // k landed past the window; nothing crashed.
            assert_eq!(space.read(&t, x), 1);
            continue;
        }
        mem.crash_all();
        let _ = mem.take_crashed(0);
        assert_eq!(
            recover_and_finish(&space, &t, x),
            1,
            "crash point {k}: the increment must be applied exactly once"
        );
    }
}

/// The indirection-based variant: the ROADMAP item's literal shape. A crash
/// after the pointer CAS was persisted, with `durable_records = false`, rolls
/// the never-flushed descriptor back to zero while `x` durably points at it —
/// a zeroed *live* descriptor. Durable mode must keep both the record and the
/// recovery verdict intact at the same pinned crash point.
#[test]
fn indirect_rcas_durable_mode_closes_the_descriptor_zeroing_window() {
    install_quiet_crash_hook();
    // Returns (value visible after the rollback, recovery verdict for CAS #1).
    let scenario = |durable: bool| -> (u64, bool) {
        // Crash-free measurement of cas + persist on an identical machine.
        let n = {
            let mem = shared_cache(1);
            let t = mem.thread(0);
            let fam = IndirectRcas::new(&t, 1, durable);
            let x = fam.create(&t, 0);
            // Keep the record the CAS below allocates off x's cache line, so
            // the caller's persist(x) cannot accidentally cover it.
            let _ = t.alloc(pmem::LINE_WORDS);
            mem.persist_everything();
            let _ = t.take_stats();
            assert!(fam.cas(&t, x, 0, 7, 1));
            t.persist(x);
            t.stats().crash_points
        };
        let mem = shared_cache(1);
        let t = mem.thread(0);
        let fam = IndirectRcas::new(&t, 1, durable);
        let x = fam.create(&t, 0);
        let _ = t.alloc(pmem::LINE_WORDS); // as in the measurement machine
        mem.persist_everything();
        let _ = t.take_stats();
        t.set_crash_schedule(CrashPlan::once(n));
        let outcome = catch_crash(|| {
            assert!(fam.cas(&t, x, 0, 7, 1));
            t.persist(x);
            let _ = fam.read(&t, x);
        });
        assert!(outcome.is_err(), "the pinned schedule must fire");
        t.disarm_crashes();
        mem.crash_all();
        let _ = mem.take_crashed(0);
        (fam.read(&t, x), fam.check_recovery(&t, x, 1))
    };
    assert_eq!(
        scenario(true),
        (7, true),
        "durable mode: the descriptor survives and the success is recoverable"
    );
    let (value, recovered) = scenario(false);
    assert_eq!(
        value, 0,
        "relaxed mode documents the bug: x durably points at a zeroed record \
         (only sound in the private-cache model; see indirect.rs)"
    );
    assert!(!recovered, "relaxed mode also loses the recovery verdict");
}

/// The flush-order auditor live on *concurrent* durable queues: the exhaustive
/// sweeps arm it single-threaded; here three threads hammer the Manual-flush
/// queues while armed, exercising the cross-thread-read rule for real — the
/// discipline means no thread ever reads a line another thread published
/// before flushing, so the auditor must stay silent.
#[test]
fn auditor_stays_silent_on_concurrent_durable_queues() {
    const THREADS: usize = 3;
    const PER_THREAD: u64 = 300;
    for optimised in [false, true] {
        let mem = shared_cache(THREADS);
        mem.flush_auditor().arm();
        let t0 = mem.thread(0);
        let general = GeneralQueue::new(
            &t0,
            THREADS,
            Durability::Manual,
            if optimised {
                capsules::BoundaryStyle::Compact
            } else {
                capsules::BoundaryStyle::General
            },
        );
        let normalized = NormalizedQueue::new(&t0, THREADS, Durability::Manual, optimised);
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let mem = &mem;
                let general = &general;
                let normalized = &normalized;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let mut hg = general.handle(&t);
                    let mut hn = normalized.handle(&t);
                    for i in 0..PER_THREAD {
                        hg.enqueue((pid as u64) << 32 | i);
                        hn.enqueue((pid as u64) << 32 | i);
                        let _ = hg.dequeue();
                        let _ = hn.dequeue();
                    }
                    t.stats().audit_flags
                });
            }
        });
        mem.crash_all(); // the crash-time exposure check, after quiescence
        assert_eq!(
            mem.flush_auditor().flags(),
            0,
            "optimised={optimised}: {:?}",
            mem.flush_auditor().take_reports()
        );
    }
}
