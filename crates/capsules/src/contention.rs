//! Contention measurement for the adaptive fast path.
//!
//! The capsule transformation pays for crash-invisibility with boundaries and
//! per-CAS announcement work on *every* operation, contended or not. The
//! adaptive variants — every one-CAS structure of both capsule constructions:
//! the queues, the stacks and the maps, all through the one driver in
//! `delayfree::fast` — instead try each operation as a single un-checkpointed
//! fast capsule first (one evidence-carrying recoverable CAS, no intermediate
//! boundaries) and only fall back to the full simulator when the fast CAS
//! keeps losing — i.e. when the structure is actually contended and the
//! simulator's helping machinery earns its cost.
//!
//! [`ContentionMeasure`] is the volatile, per-handle policy knob for that
//! decision: a consecutive-CAS-failure streak plus a demotion cooldown. It
//! never touches persistent memory, so it cannot affect crash correctness —
//! it only chooses which (individually crash-correct) path the next operation
//! enters, and that choice is sealed into the operation's entry boundary.

/// Consecutive fast-CAS failures tolerated before an operation demotes
/// itself to the slow path.
const DEFAULT_THRESHOLD: u32 = 2;

/// Operations routed straight to the slow path after a demotion, before the
/// fast path is tried again.
const DEFAULT_PROBATION: u32 = 8;

/// A CAS-failure streak counter with a demotion cooldown.
///
/// * [`record_failure`](ContentionMeasure::record_failure) after every lost
///   fast-path CAS; when the streak reaches the threshold it trips (returns
///   `true`), arming a cooldown of [`DEFAULT_PROBATION`] operations.
/// * [`record_success`](ContentionMeasure::record_success) resets the streak.
/// * [`begin_op`](ContentionMeasure::begin_op) at each operation start; it
///   pays down the cooldown and reports whether the operation should take the
///   slow path.
#[derive(Clone, Copy, Debug)]
pub struct ContentionMeasure {
    streak: u32,
    cooldown: u32,
    threshold: u32,
    probation: u32,
    fast_ops: u64,
    demotions: u64,
}

impl Default for ContentionMeasure {
    fn default() -> Self {
        ContentionMeasure::new()
    }
}

impl ContentionMeasure {
    /// A measure with the default threshold and probation window.
    pub fn new() -> ContentionMeasure {
        ContentionMeasure {
            streak: 0,
            cooldown: 0,
            threshold: DEFAULT_THRESHOLD,
            probation: DEFAULT_PROBATION,
            fast_ops: 0,
            demotions: 0,
        }
    }

    /// Override the failure-streak threshold (min 1).
    pub fn with_threshold(mut self, threshold: u32) -> ContentionMeasure {
        self.threshold = threshold.max(1);
        self
    }

    /// Override the post-demotion probation window.
    pub fn with_probation(mut self, probation: u32) -> ContentionMeasure {
        self.probation = probation;
        self
    }

    /// Called at operation start: pays down any cooldown and returns `true`
    /// while the handle is on probation (the operation should use the slow
    /// path).
    pub fn begin_op(&mut self) -> bool {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            true
        } else {
            self.fast_ops += 1;
            false
        }
    }

    /// Whether the handle currently considers the structure contended.
    pub fn contended(&self) -> bool {
        self.cooldown > 0
    }

    /// Record a lost fast-path CAS. Returns `true` when the failure streak
    /// trips the threshold: the caller should demote the current operation to
    /// the slow path (the cooldown is armed and the streak reset).
    pub fn record_failure(&mut self) -> bool {
        self.streak += 1;
        if self.streak >= self.threshold {
            self.streak = 0;
            self.cooldown = self.probation;
            self.demotions += 1;
            true
        } else {
            false
        }
    }

    /// Record a won fast-path CAS (resets the failure streak).
    pub fn record_success(&mut self) {
        self.streak = 0;
    }

    /// Operations this handle routed to the fast entry point (telemetry: the
    /// crash-point sweeps assert on this to prove the fast path — not just
    /// the simulator — was the code actually being crashed).
    pub fn fast_ops(&self) -> u64 {
        self.fast_ops
    }

    /// Times the failure streak tripped and an operation demoted itself from
    /// the fast path to the full simulator mid-flight. The interleaved sweeps
    /// assert on this to prove the fast→slow demotion boundary was exercised
    /// under crashes rather than assumed reachable.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut m = ContentionMeasure::new().with_threshold(2);
        assert!(!m.record_failure());
        assert!(m.record_failure(), "second consecutive failure must trip");
        assert!(m.contended());
    }

    #[test]
    fn success_resets_the_streak() {
        let mut m = ContentionMeasure::new().with_threshold(2);
        assert!(!m.record_failure());
        m.record_success();
        assert!(!m.record_failure(), "streak must restart after a success");
    }

    #[test]
    fn probation_routes_ops_slow_then_expires() {
        let mut m = ContentionMeasure::new().with_threshold(1).with_probation(3);
        assert!(!m.begin_op(), "uncontended handle starts fast");
        assert!(m.record_failure());
        for i in 0..3 {
            assert!(m.begin_op(), "op {i} during probation must go slow");
        }
        assert!(!m.begin_op(), "probation paid down: fast path again");
    }
}
