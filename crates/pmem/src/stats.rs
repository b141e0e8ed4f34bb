//! Per-thread instruction and persistence statistics.
//!
//! The paper's delay definitions (§3) count *steps*: shared-memory instructions,
//! local instructions, flushes and fences. The benchmark harness uses these counters
//! to reproduce the paper's flush-count discussion (fewer flushes ⇒ higher
//! throughput) and the recovery-delay comparison against the LogQueue.
//!
//! Counters live in the per-thread [`PThread`](crate::PThread) handle (they are plain
//! `u64`s behind a `Cell`, so counting costs a couple of adds per simulated
//! instruction and the overhead is identical for every algorithm under test).

use std::cell::Cell;

/// The live, per-thread counter block: one [`Cell<u64>`] per [`Stats`] field.
///
/// This is the accounting structure on the instruction hot path. Each counted
/// instruction is a single non-atomic load/add/store on the one counter it
/// touches — no `RefCell` borrow-flag bookkeeping, no branch on a shared
/// discriminant. [`PThread`](crate::PThread) owns one and snapshots it into a
/// plain [`Stats`] on demand.
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    pub(crate) reads: Cell<u64>,
    pub(crate) writes: Cell<u64>,
    pub(crate) cas: Cell<u64>,
    pub(crate) cas_success: Cell<u64>,
    pub(crate) flushes: Cell<u64>,
    pub(crate) duplicate_flushes: Cell<u64>,
    pub(crate) fences: Cell<u64>,
    pub(crate) words_allocated: Cell<u64>,
    pub(crate) recovery_steps: Cell<u64>,
    pub(crate) crashes: Cell<u64>,
    pub(crate) hb_flags: Cell<u64>,
    pub(crate) seg_resolves: Cell<u64>,
}

impl StatCells {
    /// Add `n` to a counter cell (the per-instruction accounting step).
    #[inline]
    pub(crate) fn add(cell: &Cell<u64>, n: u64) {
        cell.set(cell.get() + n);
    }

    /// Copy the live counters into an immutable snapshot. The `crash_points`
    /// field is not a cell here — `PThread` fills it in from its step counter.
    pub(crate) fn snapshot(&self) -> Stats {
        Stats {
            crash_points: 0,
            reads: self.reads.get(),
            writes: self.writes.get(),
            cas: self.cas.get(),
            cas_success: self.cas_success.get(),
            flushes: self.flushes.get(),
            duplicate_flushes: self.duplicate_flushes.get(),
            fences: self.fences.get(),
            words_allocated: self.words_allocated.get(),
            recovery_steps: self.recovery_steps.get(),
            crashes: self.crashes.get(),
            hb_flags: self.hb_flags.get(),
            seg_resolves: self.seg_resolves.get(),
        }
    }

    /// Snapshot and zero the live counters.
    pub(crate) fn take(&self) -> Stats {
        let snap = self.snapshot();
        self.reads.set(0);
        self.writes.set(0);
        self.cas.set(0);
        self.cas_success.set(0);
        self.flushes.set(0);
        self.duplicate_flushes.set(0);
        self.fences.set(0);
        self.words_allocated.set(0);
        self.recovery_steps.set(0);
        self.crashes.set(0);
        self.hb_flags.set(0);
        self.seg_resolves.set(0);
        snap
    }
}

/// A snapshot of the instructions a simulated process has executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Crash points passed in this window: one per counted instruction plus one
    /// per explicit [`PThread::crash_point`](crate::PThread::crash_point) call.
    /// Sourced from the thread's step counter at snapshot time (no extra work on
    /// the instruction hot path); the `dfck` sweeper enumerates `0..crash_points`.
    pub crash_points: u64,
    /// Shared-memory reads.
    pub reads: u64,
    /// Shared-memory writes.
    pub writes: u64,
    /// Shared-memory compare-and-swap attempts (successful or not).
    pub cas: u64,
    /// Successful compare-and-swaps.
    pub cas_success: u64,
    /// Cache-line flush instructions (`clflushopt` equivalents).
    pub flushes: u64,
    /// Flushes (already counted in `flushes`) whose target cache line this
    /// thread had already flushed since its last fence, had not re-dirtied
    /// since, and found clean — flushes the code could have left out. They
    /// execute like any other flush (writing back a clean word is a no-op).
    pub duplicate_flushes: u64,
    /// Store fences (`sfence` equivalents).
    pub fences: u64,
    /// Persistent-memory words allocated by this thread.
    pub words_allocated: u64,
    /// Steps executed while recovering from a crash (between the moment the crashed
    /// flag is observed and the moment normal execution resumes).
    pub recovery_steps: u64,
    /// Number of simulated crashes this thread has experienced.
    pub crashes: u64,
    /// Happens-before violations flagged against this thread's accesses by the
    /// [`HbAnalyzer`](crate::HbAnalyzer) — data races and cross-failure races,
    /// attributed to the later (observing) access. Zero unless `DF_HB` armed
    /// the analyzer; machine-level totals live on the analyzer itself.
    pub hb_flags: u64,
    /// Slow-path segment-table resolutions: per-thread segment-cache misses,
    /// including every identity-key invalidation after an arena swap. Stays
    /// tiny on single-arena runs (one per segment touched); a multi-arena
    /// harness can use it to confirm the cache re-keys instead of thrashing.
    pub seg_resolves: u64,
}

impl Stats {
    /// A zeroed statistics block.
    pub const fn new() -> Stats {
        Stats {
            crash_points: 0,
            reads: 0,
            writes: 0,
            cas: 0,
            cas_success: 0,
            flushes: 0,
            duplicate_flushes: 0,
            fences: 0,
            words_allocated: 0,
            recovery_steps: 0,
            crashes: 0,
            hb_flags: 0,
            seg_resolves: 0,
        }
    }

    /// Total number of shared-memory instructions (reads + writes + CAS attempts).
    pub fn shared_ops(&self) -> u64 {
        self.reads + self.writes + self.cas
    }

    /// Total number of persistence instructions (flushes + fences).
    pub fn persistence_ops(&self) -> u64 {
        self.flushes + self.fences
    }

    /// Total simulated steps: shared memory plus persistence instructions.
    pub fn steps(&self) -> u64 {
        self.shared_ops() + self.persistence_ops()
    }

    /// Total counted instructions: every category the per-instruction accounting
    /// path increments (shared-memory plus persistence instructions — the same
    /// quantity as [`steps`](Stats::steps), named for the instruction-overhead
    /// microbench which asserts its loops were fully counted).
    pub fn total_instructions(&self) -> u64 {
        self.steps()
    }

    /// Element-wise sum of two snapshots.
    pub fn merge(&self, other: &Stats) -> Stats {
        Stats {
            crash_points: self.crash_points + other.crash_points,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            cas: self.cas + other.cas,
            cas_success: self.cas_success + other.cas_success,
            flushes: self.flushes + other.flushes,
            duplicate_flushes: self.duplicate_flushes + other.duplicate_flushes,
            fences: self.fences + other.fences,
            words_allocated: self.words_allocated + other.words_allocated,
            recovery_steps: self.recovery_steps + other.recovery_steps,
            crashes: self.crashes + other.crashes,
            hb_flags: self.hb_flags + other.hb_flags,
            seg_resolves: self.seg_resolves + other.seg_resolves,
        }
    }

    /// Element-wise difference (`self - earlier`), useful for measuring a window.
    ///
    /// Saturates at zero so that a window around a `take_stats` reset does not wrap.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            crash_points: self.crash_points.saturating_sub(earlier.crash_points),
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            cas: self.cas.saturating_sub(earlier.cas),
            cas_success: self.cas_success.saturating_sub(earlier.cas_success),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            duplicate_flushes: self
                .duplicate_flushes
                .saturating_sub(earlier.duplicate_flushes),
            fences: self.fences.saturating_sub(earlier.fences),
            words_allocated: self.words_allocated.saturating_sub(earlier.words_allocated),
            recovery_steps: self.recovery_steps.saturating_sub(earlier.recovery_steps),
            crashes: self.crashes.saturating_sub(earlier.crashes),
            hb_flags: self.hb_flags.saturating_sub(earlier.hb_flags),
            seg_resolves: self.seg_resolves.saturating_sub(earlier.seg_resolves),
        }
    }

    /// Flushes per high-level operation, given an operation count.
    pub fn flushes_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.flushes as f64 / ops as f64
        }
    }

    /// Fences per high-level operation, given an operation count.
    pub fn fences_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.fences as f64 / ops as f64
        }
    }

    /// Dedup-able (same line, same fence window) flushes per high-level
    /// operation, given an operation count.
    pub fn duplicate_flushes_per_op(&self, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.duplicate_flushes as f64 / ops as f64
        }
    }
}

impl std::ops::Add for Stats {
    type Output = Stats;
    fn add(self, rhs: Stats) -> Stats {
        self.merge(&rhs)
    }
}

impl std::iter::Sum for Stats {
    fn sum<I: Iterator<Item = Stats>>(iter: I) -> Stats {
        iter.fold(Stats::new(), |a, b| a.merge(&b))
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} cas={} (ok={}) flushes={} (dup={}) fences={} alloc_words={} recovery_steps={} crashes={} crash_points={} hb_flags={} seg_resolves={}",
            self.reads,
            self.writes,
            self.cas,
            self.cas_success,
            self.flushes,
            self.duplicate_flushes,
            self.fences,
            self.words_allocated,
            self.recovery_steps,
            self.crashes,
            self.crash_points,
            self.hb_flags,
            self.seg_resolves
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stats {
        Stats {
            crash_points: 24,
            reads: 10,
            writes: 5,
            cas: 3,
            cas_success: 2,
            flushes: 4,
            duplicate_flushes: 3,
            fences: 2,
            words_allocated: 7,
            recovery_steps: 1,
            crashes: 1,
            hb_flags: 1,
            seg_resolves: 3,
        }
    }

    #[test]
    fn totals() {
        let s = sample();
        assert_eq!(s.shared_ops(), 18);
        assert_eq!(s.persistence_ops(), 6);
        assert_eq!(s.steps(), 24);
    }

    #[test]
    fn merge_adds_fields() {
        let s = sample().merge(&sample());
        assert_eq!(s.reads, 20);
        assert_eq!(s.flushes, 8);
        assert_eq!(s.duplicate_flushes, 6);
        assert_eq!(s.crashes, 2);
        assert_eq!(s.crash_points, 48);
    }

    #[test]
    fn since_subtracts_and_saturates() {
        let a = sample();
        let mut b = sample();
        b.reads = 25;
        let d = b.since(&a);
        assert_eq!(d.reads, 15);
        assert_eq!(d.writes, 0);
        // Saturation: subtracting a larger snapshot yields zero, not a wrap.
        let d2 = a.since(&b);
        assert_eq!(d2.reads, 0);
    }

    #[test]
    fn per_op_rates() {
        let s = sample();
        assert!((s.flushes_per_op(2) - 2.0).abs() < 1e-9);
        assert_eq!(s.flushes_per_op(0), 0.0);
        assert!((s.fences_per_op(4) - 0.5).abs() < 1e-9);
        assert!((s.duplicate_flushes_per_op(2) - 1.5).abs() < 1e-9);
        assert_eq!(s.duplicate_flushes_per_op(0), 0.0);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Stats = vec![sample(), sample(), Stats::new()].into_iter().sum();
        assert_eq!(total.reads, 20);
        assert_eq!(total.fences, 4);
    }

    #[test]
    fn display_contains_counters() {
        let text = sample().to_string();
        assert!(text.contains("flushes=4"));
        assert!(text.contains("(dup=3)"));
        assert!(text.contains("crashes=1"));
        assert!(text.contains("crash_points=24"));
        assert!(text.contains("hb_flags=1"));
    }
}
