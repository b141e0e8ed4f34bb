//! Seeded-mutant validation for the happens-before analyzer (`pmem::hb`).
//!
//! Each test pair drives a small protocol sketch twice: once with a seeded
//! discipline violation (modelled on real bug shapes in the transformed
//! algorithms) and once with the one-line fix. The analyzer must flag the
//! mutant **at the faulting instruction** — the report names the pid, the
//! word and the step of the access that consumed the broken ordering — and
//! the fixed twin must run clean. Everything here is single-schedule and
//! deterministic: the flags depend only on the instruction sequence.
//!
//! The four mutants mirror the bug classes the dfck sweeps could silently
//! miss (the simulator persists eagerly at the flush, so a skipped `fence`
//! never corrupts replayed state — only the ordering analyzer can see it):
//!
//! 1. **Dropped record flush** — a record is published by CAS and the
//!    pointer persisted, but the record itself (plain words) was never
//!    flushed.
//! 2. **Relaxed-where-release store** — a plain store publishes a data word
//!    to a concurrent reader with no release annotation: a data race.
//! 3. **Skipped fence before a publishing store** — the record *was* flushed
//!    (`clflushopt`) but the `sfence` is missing, so the flush is not ordered
//!    before the publication. The publisher here is a release *store*: a
//!    plain `mov` on x86, which orders nothing. (Publishing by CAS instead
//!    would be the paper's §9 fence elision and is clean — the lock prefix
//!    drains the pending flush; see
//!    `a_cas_publication_makes_the_skipped_fence_sound` below.)
//! 4. **Unpersisted release-stored announcement** — the rcas shape: the
//!    announcement is a *synchronization* word (stored with `write_release`,
//!    read by helpers), and a CAS on the object publishes past it before it
//!    was persisted. Recovery reads the announcement as its evidence, so a
//!    crash that keeps the CAS and loses the announcement re-executes it.

use pmem::{MemConfig, Mode, PMem, LINE_WORDS};

fn machine(threads: usize) -> PMem {
    let mem = PMem::new(MemConfig::new(threads).mode(Mode::SharedCache));
    mem.hb().arm();
    mem
}

// ----- mutant 1: dropped announcement flush --------------------------------

fn announcement_protocol(persist_announcement: bool) -> (u64, Vec<String>, String) {
    let mem = machine(1);
    let t = mem.thread(0);
    let ann = t.alloc(LINE_WORDS); // the "announcement" record
    let x = t.alloc(LINE_WORDS); // the word that publishes it
    t.write(ann, 0xA11);
    if persist_announcement {
        t.persist(ann); // the fix: durable before reachable
    }
    assert!(t.cas(x, 0, ann.to_raw()));
    t.persist(x); // the pointer is durably ordered either way
    mem.crash_all();
    let _ = t.read(ann); // recovery consumes the record
    let fault = format!("pid 0 read {ann:?} at step {}", t.step_count());
    (mem.hb().flags(), mem.hb().take_reports(), fault)
}

#[test]
fn dropped_announcement_flush_is_flagged_at_the_recovery_read() {
    let (flags, reports, fault) = announcement_protocol(false);
    assert_eq!(flags, 1, "{reports:?}");
    assert!(reports[0].contains("cross-failure race"), "{reports:?}");
    assert!(reports[0].contains(&fault), "report {reports:?} does not name the faulting instruction {fault:?}");
}

#[test]
fn persisting_the_announcement_before_publish_unflags_it() {
    let (flags, reports, _) = announcement_protocol(true);
    assert_eq!(flags, 0, "{reports:?}");
}

// ----- mutant 2: relaxed store where a release is required -----------------

fn publication_protocol(release: bool) -> (u64, Vec<String>, String) {
    let mem = machine(2);
    let t0 = mem.thread(0);
    let t1 = mem.thread(1);
    let data = t0.alloc(LINE_WORDS);
    let ready = t0.alloc(LINE_WORDS);
    t0.write(data, 7);
    if release {
        t0.write_release(ready, 1); // the fix: an annotated release store
    } else {
        t0.write(ready, 1); // the mutant: plain store publishes `data`
    }
    assert_eq!(t1.read(ready), 1);
    let fault = format!("pid 1 read {ready:?} at step {}", t1.step_count());
    assert_eq!(t1.read(data), 7);
    (mem.hb().flags(), mem.hb().take_reports(), fault)
}

#[test]
fn relaxed_publication_store_is_flagged_at_the_consuming_read() {
    let (flags, reports, fault) = publication_protocol(false);
    // Both the flag read and the dependent data read race.
    assert_eq!(flags, 2, "{reports:?}");
    assert!(reports[0].contains("data race"), "{reports:?}");
    assert!(reports[0].contains(&fault), "report {reports:?} does not name the faulting instruction {fault:?}");
}

#[test]
fn a_release_annotation_on_the_publication_store_unflags_it() {
    let (flags, reports, _) = publication_protocol(true);
    assert_eq!(flags, 0, "{reports:?}");
}

// ----- mutant 3: flush without fence before a publishing store -------------

fn fence_protocol(fence_before_publish: bool) -> (u64, Vec<String>, String) {
    let mem = machine(1);
    let t = mem.thread(0);
    let rec = t.alloc(LINE_WORDS);
    let x = t.alloc(LINE_WORDS);
    t.write(rec, 0xEC);
    t.flush(rec); // clflushopt issued either way...
    if fence_before_publish {
        t.fence(); // ...but only the fix orders it before the publication
    }
    t.write_release(x, rec.to_raw()); // a plain `mov`: orders nothing
    t.flush(x);
    // The crash lands before any fence: the simulator's eager persist keeps
    // both words, but nothing *ordered* the record before the pointer.
    mem.crash_all();
    let _ = t.read(rec);
    let fault = format!("pid 0 read {rec:?} at step {}", t.step_count());
    (mem.hb().flags(), mem.hb().take_reports(), fault)
}

#[test]
fn skipped_fence_before_publish_is_flagged_at_the_recovery_read() {
    let (flags, reports, fault) = fence_protocol(false);
    assert_eq!(flags, 1, "{reports:?}");
    assert!(reports[0].contains("cross-failure race"), "{reports:?}");
    assert!(reports[0].contains(&fault), "report {reports:?} does not name the faulting instruction {fault:?}");
}

#[test]
fn fencing_before_the_publishing_store_unflags_it() {
    let (flags, reports, _) = fence_protocol(true);
    assert_eq!(flags, 0, "{reports:?}");
}

#[test]
fn a_cas_publication_makes_the_skipped_fence_sound() {
    // The same skipped-fence sequence, but published by a locked CAS: the
    // lock prefix drains the earlier `clflushopt` (Px86), which is exactly
    // the fence elision the `-Opt` variants and the log queue rely on.
    let mem = machine(1);
    let t = mem.thread(0);
    let rec = t.alloc(LINE_WORDS);
    let x = t.alloc(LINE_WORDS);
    t.write(rec, 0xEC);
    t.flush(rec); // no fence...
    assert!(t.cas(x, 0, rec.to_raw())); // ...the CAS orders the flush
    t.flush(x);
    mem.crash_all();
    let _ = t.read(rec);
    let reports = mem.hb().take_reports();
    assert_eq!(mem.hb().flags(), 0, "{reports:?}");
}

// ----- mutant 4: announcement (a sync word) published past unpersisted -------

fn sync_announcement_protocol(persist_announcement: bool) -> (u64, Vec<String>, String) {
    let mem = machine(1);
    let t = mem.thread(0);
    let ann = t.alloc(LINE_WORDS);
    let x = t.alloc(LINE_WORDS);
    t.write_release(ann, 0xA11); // announce, as `rcas` does
    if persist_announcement {
        t.flush(ann); // the fix: durable before the CAS publishes past it
        t.fence();
    }
    assert!(t.cas(x, 0, 1));
    t.persist(x);
    mem.crash_all();
    let _ = t.read(ann); // recovery consults its evidence
    let fault = format!("pid 0 read {ann:?} at step {}", t.step_count());
    (mem.hb().flags(), mem.hb().take_reports(), fault)
}

#[test]
fn unpersisted_release_stored_announcement_is_flagged_at_the_recovery_read() {
    let (flags, reports, fault) = sync_announcement_protocol(false);
    assert_eq!(flags, 1, "{reports:?}");
    assert!(reports[0].contains("cross-failure race"), "{reports:?}");
    assert!(reports[0].contains(&fault), "report {reports:?} does not name the faulting instruction {fault:?}");
}

#[test]
fn persisting_the_release_stored_announcement_before_the_cas_unflags_it() {
    let (flags, reports, _) = sync_announcement_protocol(true);
    assert_eq!(flags, 0, "{reports:?}");
}
