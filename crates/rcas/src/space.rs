//! Algorithm 1: the constant-time recoverable CAS.
//!
//! The object's state is a single persistent word holding the packed triple
//! ⟨value, pid, seq⟩ of the most recent *successful* CAS, plus one announcement word
//! per process (⟨seq, flag⟩). A CAS by process `i` with sequence number `s`:
//!
//! 1. reads the current triple ⟨v, j, s'⟩ and, if `v` is not the expected value,
//!    fails immediately (this read is the *notify* read),
//! 2. **notifies** process `j` by CASing its announcement from ⟨s', 0⟩ to ⟨s', 1⟩
//!    ("your CAS number s' did succeed — I am about to overwrite it"),
//! 3. **announces** its own attempt by writing ⟨s, 0⟩ into its announcement slot,
//! 4. performs the actual CAS from ⟨v, j, s'⟩ to ⟨new, i, s⟩.
//!
//! `Recover` re-runs the notify step (so it also works when the crash happened after
//! the operation finished — the strict-linearizability strengthening of §4) and then
//! returns the caller's announcement word.
//!
//! ## Sharing the announcement array
//!
//! The paper declares the announcement array per object (`A[P]` inside the `RCas`
//! class), which makes the contention-delay argument immediate. Because sequence
//! numbers are unique *per process across all objects*, a single announcement slot
//! per process can be shared by every object created in the same [`RcasSpace`]
//! without changing what `Recover` may return — a notifier only flips the flag of an
//! announcement whose sequence number it read inside the object it is operating on,
//! and a process always recovers against the same object it CASed. Sharing keeps
//! linked-structure nodes at their original size (the x word simply replaces the
//! plain pointer word). Callers who want the paper's exact per-object layout can
//! create one space per object; the stress tests exercise both configurations.
//!
//! ## Anonymous CASes
//!
//! §7's optimisation lets wrap-up/generator CASes "leave out their own ID and
//! sequence number" so that they never clobber the notification owed to an executor
//! CAS on the same location. [`RcasSpace::cas_anonymous`] implements this by
//! installing the reserved pid [`RcasSpace::anonymous_pid`] and sequence number 0,
//! and by skipping the announce step. Such CASes must only be used where the
//! surrounding algorithm guarantees they are safe to repeat (parallelizable methods).
//!
//! ## Durable announcements (the shared-cache flush discipline)
//!
//! In the private-cache model every store is immediately durable, so the protocol
//! above is complete as written. In the *shared-cache* model the announcement words
//! live in the (volatile) cache like everything else, and the protocol's recovery
//! guarantee silently depends on a flush-ordering invariant: **no state reachable
//! after a full-system crash may durably point past announcement state that is not
//! itself durable.** Concretely, two lines must be flushed (and fenced) *before*
//! the publishing CAS on `x`:
//!
//! * the caller's own announcement ⟨seq, 0⟩ — otherwise a crash after the caller
//!   persisted `x` rolls the announcement back, `Recover` finds a stale word,
//!   `checkRecovery` reports *not done*, and the capsule re-executes a CAS that is
//!   already durable (the duplicate-element bug the `dfck` full-system sweep found);
//! * the *previous winner's* announcement line — the notify CAS (or an earlier
//!   notifier's, or the owner's own self-notify) may have set the flag in cache
//!   only, and overwriting the ⟨value, pid, seq⟩ triple destroys the only other
//!   durable evidence that the owner's CAS succeeded. The flush is issued whether
//!   or not this call's notify CAS won: the *current cache state* of that line is
//!   what must be durable before the triple is overwritten.
//!
//! [`RcasSpace::with_durability`] enables this discipline (one extra flush+fence
//! per recoverable CAS, plus one flush when a non-anonymous owner is notified);
//! durable-queue callers under `Durability::Manual` semantics want it, while
//! private-cache and Izraelevitz-construction callers can skip it. The fence
//! before the CAS is *not* elidable by the `-Opt` fence-elision rule: it orders
//! the announcement flushes before the publish, which a subsequent CAS does not.

use pmem::{PAddr, PThread, LINE_WORDS};

use crate::layout::{PackError, RcasLayout};

/// Number of processes per announcement *shard*: each group of `SHARD_PIDS`
/// consecutive pids owns one cache-line-aligned block of announcement lines,
/// and group-scoped helpers ([`RcasSpace::help_group`]) scan only their own
/// block. Shard blocks are separated by one padding line so that adjacent
/// shards never share a spatial-prefetch pair and a helper's scan stays
/// entirely inside its group's lines.
pub const SHARD_PIDS: usize = 4;

/// Offsets of the recovery-evidence words inside a process's announcement
/// line (word 0 is the ⟨seq, flag⟩ announcement itself). Written by
/// [`RcasSpace::cas_with_evidence`] *before* the announcement word so the
/// one announcement flush covers attempt and evidence together.
const EVIDENCE_SEQ: u64 = 1;
const EVIDENCE_X: u64 = 2;
const EVIDENCE_NEW: u64 = 3;
const EVIDENCE_EXPECTED: u64 = 4;
const EVIDENCE_AUX: u64 = 5;

/// The durable evidence a [`RcasSpace::cas_with_evidence`] call leaves on the
/// caller's announcement line: which object the announced sequence number
/// targeted and what it tried to install. Valid only while the evidence seq
/// matches the announcement seq (a later evidence-free CAS re-uses the
/// announcement word and invalidates the pairing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CasEvidence {
    /// The announced attempt: sequence number and success flag.
    pub result: RecoverResult,
    /// The recoverable-CAS word the attempt targeted.
    pub x: PAddr,
    /// The value the attempt tried to install.
    pub new: u64,
    /// The application value the attempt expected to find.
    pub expected: u64,
    /// Caller-defined payload persisted with the attempt (the normalized
    /// simulator stores its `CasDesc::aux` word here so a crashed fast-path
    /// wrap-up can be replayed from evidence alone).
    pub aux: u64,
}

/// Result of a `Recover` call: the announcement word of the recovering process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoverResult {
    /// The sequence number stored in the announcement slot.
    pub seq: u64,
    /// Whether that sequence number's CAS is known to have succeeded.
    pub flag: bool,
}

impl RecoverResult {
    /// Pack as the announcement-word encoding `(seq << 1) | flag`.
    fn pack(self) -> u64 {
        (self.seq << 1) | (self.flag as u64)
    }

    fn unpack(word: u64) -> RecoverResult {
        RecoverResult {
            seq: word >> 1,
            flag: (word & 1) != 0,
        }
    }
}

/// A family of recoverable CAS objects sharing a per-process announcement array.
///
/// Create one space per data structure (or per object, for the paper's exact
/// layout), then format individual words with [`init_word`](RcasSpace::init_word)
/// or allocate standalone objects with [`create`](RcasSpace::create).
#[derive(Clone, Copy, Debug)]
pub struct RcasSpace {
    ann_base: PAddr,
    nprocs: usize,
    layout: RcasLayout,
    /// Shared-cache flush discipline: flush (and fence) the announcement lines a
    /// CAS depends on *before* the publishing CAS (see the module docs). Off by
    /// default — private-cache and Izraelevitz-construction callers need no
    /// explicit flushes.
    durable: bool,
}

impl RcasSpace {
    /// Create a space for `nprocs` processes. `nprocs` must be strictly smaller
    /// than the layout's maximum pid, because the all-ones pid is reserved for
    /// anonymous CASes.
    pub fn new(thread: &PThread<'_>, nprocs: usize, layout: RcasLayout) -> RcasSpace {
        assert!(nprocs >= 1);
        assert!(
            nprocs < layout.max_pid(),
            "nprocs ({nprocs}) must be < max pid ({}); the largest pid is reserved for anonymous CASes",
            layout.max_pid()
        );
        // One cache line per announcement slot: announcements are per-process local
        // state and must not share flush granularity with unrelated processes.
        // Line-aligned: a plain multi-line `alloc` may start mid-line, putting
        // the first/last slots on lines shared with neighbouring records, whose
        // flushes and rollbacks would then couple to announcement state.
        // Slots are grouped into per-pid-group shards of `SHARD_PIDS` lines
        // (plus a padding line between shards), so group-scoped helpers touch
        // only their own shard's lines.
        let groups = nprocs.div_ceil(SHARD_PIDS) as u64;
        let ann_base = thread.alloc_aligned(groups * Self::shard_stride());
        RcasSpace {
            ann_base,
            nprocs,
            layout,
            durable: false,
        }
    }

    /// Create a space with the default layout.
    pub fn with_default_layout(thread: &PThread<'_>, nprocs: usize) -> RcasSpace {
        RcasSpace::new(thread, nprocs, RcasLayout::DEFAULT)
    }

    /// Enable (or disable) the durable-announcement flush discipline of the module
    /// docs: announcement lines are flushed, and a fence issued, before every
    /// publishing CAS, so that a full-system crash can never leave a durable
    /// ⟨value, pid, seq⟩ triple whose recovery evidence was still volatile.
    pub fn with_durability(mut self, durable: bool) -> RcasSpace {
        self.durable = durable;
        self
    }

    /// Whether the durable-announcement flush discipline is enabled.
    pub fn durable(&self) -> bool {
        self.durable
    }

    /// The packed-word layout used by this space.
    pub fn layout(&self) -> RcasLayout {
        self.layout
    }

    /// Number of processes this space supports.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The reserved pid installed by anonymous CASes and by initial values.
    pub fn anonymous_pid(&self) -> usize {
        self.layout.max_pid()
    }

    /// Words from one shard block's start to the next: `SHARD_PIDS`
    /// announcement lines plus one padding line.
    fn shard_stride() -> u64 {
        (SHARD_PIDS as u64 + 1) * LINE_WORDS
    }

    /// The shard (pid group) index `pid` belongs to.
    pub fn shard_of(&self, pid: usize) -> usize {
        pid / SHARD_PIDS
    }

    /// Address of process `pid`'s announcement word.
    pub fn ann_addr(&self, pid: usize) -> PAddr {
        assert!(pid < self.nprocs, "pid {pid} out of range");
        let group = (pid / SHARD_PIDS) as u64;
        let slot = (pid % SHARD_PIDS) as u64;
        self.ann_base
            .offset(group * Self::shard_stride() + slot * LINE_WORDS)
    }

    /// Format the persistent word at `addr` as a recoverable CAS object holding
    /// `initial`. The initial state is attributed to the anonymous pid so that no
    /// process is ever notified about it.
    pub fn init_word(&self, thread: &PThread<'_>, addr: PAddr, initial: u64) {
        let packed = self.layout.pack(initial, self.anonymous_pid(), 0);
        thread.write(addr, packed);
    }

    /// Allocate and format a standalone recoverable CAS object.
    pub fn create(&self, thread: &PThread<'_>, initial: u64) -> RCas {
        let addr = thread.alloc(1);
        self.init_word(thread, addr, initial);
        RCas { addr }
    }

    // ----- Algorithm 1 -------------------------------------------------------

    /// `Read()` — the current application value of the object at `x`.
    #[inline]
    pub fn read(&self, thread: &PThread<'_>, x: PAddr) -> u64 {
        self.layout.value_of(thread.read(x))
    }

    /// Read the full ⟨value, pid, seq⟩ triple (mostly for tests and debugging).
    pub fn read_full(&self, thread: &PThread<'_>, x: PAddr) -> (u64, usize, u64) {
        self.layout.unpack(thread.read(x))
    }

    /// Notify the owner of the triple `(owner_pid, owner_seq)` that its CAS
    /// succeeded, unless the owner is the anonymous pid.
    #[inline]
    fn notify(&self, thread: &PThread<'_>, owner_pid: usize, owner_seq: u64) {
        if owner_pid == self.anonymous_pid() {
            return;
        }
        let ann = self.ann_addr(owner_pid);
        let old = RecoverResult {
            seq: owner_seq,
            flag: false,
        }
        .pack();
        let new = RecoverResult {
            seq: owner_seq,
            flag: true,
        }
        .pack();
        // The CAS may fail if the owner has already announced a newer operation or
        // has already been notified — both are fine (Lemma A.1).
        let _ = thread.cas(ann, old, new);
        if self.durable {
            // Make the owner's announcement state durable before any caller
            // overwrites (and persists) the triple that backs it up. Issued even
            // when the CAS above lost: the flag may have been set earlier and
            // still be sitting unflushed in the cache (module docs).
            thread.flush(ann);
        }
    }

    /// `Cas(a, b, seq, i)` — recoverable compare-and-swap by the calling thread.
    ///
    /// `seq` must be strictly positive, strictly increasing across the calling
    /// process's operations, and each `seq` value must be used by at most one CAS
    /// *attempt group* (a capsule may retry the same ⟨seq, a, b⟩ after a crash —
    /// that is exactly the case the recovery machinery makes safe).
    pub fn cas(&self, thread: &PThread<'_>, x: PAddr, expected: u64, new: u64, seq: u64) -> bool {
        self.cas_inner(thread, x, expected, new, seq, None)
    }

    /// [`cas`](RcasSpace::cas) with a checked encode: sequence-number (or value)
    /// exhaustion surfaces as a typed [`PackError`] at the call site instead of
    /// a panic deep inside a sweep. The encode is validated *before* any
    /// protocol side effect, so an `Err` leaves the object, the announcement
    /// slot and the notification state untouched — long-running drivers (the
    /// million-key map workload) check this once per operation and bail out
    /// cleanly when a pid runs its seq field dry.
    pub fn try_cas(
        &self,
        thread: &PThread<'_>,
        x: PAddr,
        expected: u64,
        new: u64,
        seq: u64,
    ) -> Result<bool, PackError> {
        self.layout.try_pack(new, thread.pid(), seq)?;
        Ok(self.cas_inner(thread, x, expected, new, seq, None))
    }

    /// [`cas`](RcasSpace::cas), additionally leaving durable *evidence* on the
    /// caller's announcement line: the ⟨seq, x, new, expected, aux⟩ of this
    /// attempt, written before the announcement word so that the announcement
    /// flush covers both. The contention-adaptive fast path uses this so a
    /// crash anywhere inside an un-checkpointed fast operation can be resolved
    /// from the announcement line alone ([`evidence`](RcasSpace::evidence)):
    /// evidence seq newer than the last capsule boundary means the crash hit
    /// this attempt, and the flag (after a [`recover`](RcasSpace::recover)
    /// re-notify on the recorded `x`) tells whether the CAS took effect.
    /// `aux` is an operation-defined payload carried for the caller's recovery
    /// code (e.g. the value a fast dequeue is about to return).
    pub fn cas_with_evidence(
        &self,
        thread: &PThread<'_>,
        x: PAddr,
        expected: u64,
        new: u64,
        seq: u64,
        aux: u64,
    ) -> bool {
        self.cas_inner(thread, x, expected, new, seq, Some(aux))
    }

    fn cas_inner(
        &self,
        thread: &PThread<'_>,
        x: PAddr,
        expected: u64,
        new: u64,
        seq: u64,
        evidence: Option<u64>,
    ) -> bool {
        let pid = thread.pid();
        debug_assert!(pid < self.nprocs, "thread pid {pid} not covered by this RcasSpace");
        debug_assert!(seq >= 1, "sequence numbers must start at 1");
        let observed = thread.read(x);
        let (v, owner_pid, owner_seq) = self.layout.unpack(observed);
        if v != expected {
            return false;
        }
        // Notify the previous winner before we overwrite its triple.
        self.notify(thread, owner_pid, owner_seq);
        let ann = self.ann_addr(pid);
        if let Some(aux) = evidence {
            // Evidence rides the announcement line and is written first, so
            // the announcement flush below makes ⟨attempt, evidence⟩ durable
            // as one unit: whenever the announcement word is durable, so is
            // the evidence that interprets it.
            thread.write(ann.offset(EVIDENCE_SEQ), seq);
            thread.write(ann.offset(EVIDENCE_X), x.to_raw());
            thread.write(ann.offset(EVIDENCE_NEW), new);
            thread.write(ann.offset(EVIDENCE_EXPECTED), expected);
            thread.write(ann.offset(EVIDENCE_AUX), aux);
        }
        // Announce our own attempt: ⟨seq, 0⟩. A release store: helpers read
        // this word plainly (`help_group`) before it has ever been CASed, and
        // the evidence written above must be happens-before-ordered under it.
        thread.write_release(
            ann,
            RecoverResult {
                seq,
                flag: false,
            }
            .pack(),
        );
        if self.durable {
            // The announcement must be durable before the CAS can be: a crash
            // that rolls it back while the installed triple survives makes
            // `checkRecovery` re-execute a CAS that already took effect.
            thread.flush(ann);
            thread.fence();
        }
        let desired = self.layout.pack(new, pid, seq);
        thread.cas(x, observed, desired)
    }

    /// The caller's current announcement word ⟨seq, flag⟩, *without* the
    /// re-notify step of [`recover`](RcasSpace::recover) (recovery code uses
    /// this to decide whether an evidence-carrying attempt is newer than the
    /// last capsule boundary before it knows which object to re-notify on).
    pub fn announcement(&self, thread: &PThread<'_>) -> RecoverResult {
        RecoverResult::unpack(thread.read(self.ann_addr(thread.pid())))
    }

    /// The caller's evidence triple, if the announcement line currently holds
    /// one: `None` when no evidence was ever written, when a later evidence-free
    /// CAS re-announced over it, or when the announcement is still the initial
    /// zero state.
    pub fn evidence(&self, thread: &PThread<'_>) -> Option<CasEvidence> {
        let ann = self.ann_addr(thread.pid());
        let result = RecoverResult::unpack(thread.read(ann));
        if result.seq == 0 || thread.read(ann.offset(EVIDENCE_SEQ)) != result.seq {
            return None;
        }
        let x = PAddr::from_raw(thread.read(ann.offset(EVIDENCE_X)));
        if x.is_null() {
            return None;
        }
        Some(CasEvidence {
            result,
            x,
            new: thread.read(ann.offset(EVIDENCE_NEW)),
            expected: thread.read(ann.offset(EVIDENCE_EXPECTED)),
            aux: thread.read(ann.offset(EVIDENCE_AUX)),
        })
    }

    /// Scan the caller's own announcement shard and re-run the notify step for
    /// every group member with a pending evidence-carrying attempt, so their
    /// success flags become observable without them having to run first. The
    /// scan touches only this group's shard block — helpers never walk the
    /// whole announcement array (the sharding contract). Safe to run at any
    /// time: notify is idempotent and only sets a flag the protocol already
    /// owes. Returns the number of members whose pending attempt was examined.
    pub fn help_group(&self, thread: &PThread<'_>) -> usize {
        let me = thread.pid();
        let lo = self.shard_of(me) * SHARD_PIDS;
        let hi = (lo + SHARD_PIDS).min(self.nprocs);
        let mut helped = 0;
        for q in lo..hi {
            if q == me {
                continue; // own attempts go through `recover` / `evidence`
            }
            let ann = self.ann_addr(q);
            let r = RecoverResult::unpack(thread.read(ann));
            if r.seq == 0 || r.flag {
                continue; // nothing announced, or already notified
            }
            // Intentionally racy scans: the owner may be overwriting its
            // evidence concurrently. Torn context is benign — the seq check
            // rejects stale evidence, and `notify` re-reads `x` and CASes, so
            // a misread here can only skip help the owner will redo itself.
            if thread.read_racy(ann.offset(EVIDENCE_SEQ)) != r.seq {
                continue; // evidence-free attempt: its owner recovers via its frame
            }
            let x = PAddr::from_raw(thread.read_racy(ann.offset(EVIDENCE_X)));
            if x.is_null() {
                continue;
            }
            let (_, owner_pid, owner_seq) = self.layout.unpack(thread.read(x));
            self.notify(thread, owner_pid, owner_seq);
            helped += 1;
        }
        helped
    }

    /// A CAS that installs the anonymous pid (§7): other processes will not notify
    /// the caller about it, and it does not disturb the caller's announcement slot,
    /// so the notification owed to an earlier executor CAS on the same object stays
    /// intact. Only safe where repetitions are harmless (parallelizable methods) and
    /// where the installed value cannot reintroduce ABA.
    pub fn cas_anonymous(&self, thread: &PThread<'_>, x: PAddr, expected: u64, new: u64) -> bool {
        let observed = thread.read(x);
        let (v, owner_pid, owner_seq) = self.layout.unpack(observed);
        if v != expected {
            return false;
        }
        self.notify(thread, owner_pid, owner_seq);
        if self.durable && owner_pid != self.anonymous_pid() {
            // Order the notify flush before the publish (no announcement of our
            // own to persist — anonymous CASes skip the announce step).
            thread.fence();
        }
        let desired = self.layout.pack(new, self.anonymous_pid(), 0);
        thread.cas(x, observed, desired)
    }

    /// `Recover(i)` — returns the caller's announcement ⟨seq, flag⟩ after
    /// re-performing the notify step on the object at `x`.
    pub fn recover(&self, thread: &PThread<'_>, x: PAddr) -> RecoverResult {
        let pid = thread.pid();
        let (_, owner_pid, owner_seq) = self.layout.unpack(thread.read(x));
        self.notify(thread, owner_pid, owner_seq);
        RecoverResult::unpack(thread.read(self.ann_addr(pid)))
    }
}

/// A standalone recoverable CAS object (a formatted word plus the space it belongs
/// to is supplied at each call, mirroring how embedded fields are used).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RCas {
    addr: PAddr,
}

impl RCas {
    /// Wrap an already formatted word (see [`RcasSpace::init_word`]).
    pub fn at(addr: PAddr) -> RCas {
        RCas { addr }
    }

    /// The underlying persistent word.
    pub fn addr(&self) -> PAddr {
        self.addr
    }

    /// `Read()`.
    pub fn read(&self, space: &RcasSpace, thread: &PThread<'_>) -> u64 {
        space.read(thread, self.addr)
    }

    /// `Cas(a, b, seq, i)`.
    pub fn cas(
        &self,
        space: &RcasSpace,
        thread: &PThread<'_>,
        expected: u64,
        new: u64,
        seq: u64,
    ) -> bool {
        space.cas(thread, self.addr, expected, new, seq)
    }

    /// `Recover(i)`.
    pub fn recover(&self, space: &RcasSpace, thread: &PThread<'_>) -> RecoverResult {
        space.recover(thread, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{catch_crash, install_quiet_crash_hook, CrashPolicy, PMem};

    fn setup(threads: usize) -> (PMem, RcasSpace, PAddr) {
        let mem = PMem::with_threads(threads);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, threads);
        let obj = space.create(&t, 0);
        let addr = obj.addr();
        (mem, space, addr)
    }

    #[test]
    fn read_initial_value() {
        let (mem, space, x) = setup(2);
        let t = mem.thread(0);
        assert_eq!(space.read(&t, x), 0);
        let (_, pid, seq) = space.read_full(&t, x);
        assert_eq!(pid, space.anonymous_pid());
        assert_eq!(seq, 0);
    }

    #[test]
    fn cas_success_and_failure() {
        let (mem, space, x) = setup(2);
        let t = mem.thread(0);
        assert!(space.cas(&t, x, 0, 10, 1));
        assert_eq!(space.read(&t, x), 10);
        assert!(!space.cas(&t, x, 0, 20, 2), "expected-value mismatch must fail");
        assert_eq!(space.read(&t, x), 10);
        assert!(space.cas(&t, x, 10, 20, 3));
        assert_eq!(space.read(&t, x), 20);
        let (v, pid, seq) = space.read_full(&t, x);
        assert_eq!((v, pid, seq), (20, 0, 3));
    }

    #[test]
    fn recover_self_notifies_after_successful_cas() {
        let (mem, space, x) = setup(2);
        let t = mem.thread(0);
        assert!(space.cas(&t, x, 0, 5, 7));
        // Nobody else has touched the object; Recover must still find out that CAS
        // #7 succeeded (the self-notify path of Algorithm 1's Recover).
        let r = space.recover(&t, x);
        assert_eq!(r, RecoverResult { seq: 7, flag: true });
    }

    #[test]
    fn later_cas_by_other_process_notifies_previous_winner() {
        let (mem, space, x) = setup(2);
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        assert!(space.cas(&t0, x, 0, 5, 1));
        assert!(space.cas(&t1, x, 5, 6, 1));
        // Process 0's announcement now carries the success flag even though process
        // 0 did nothing after its CAS.
        let r = space.recover(&t0, x);
        assert_eq!(r, RecoverResult { seq: 1, flag: true });
        // And process 1 can also recover its own success.
        let r1 = space.recover(&t1, x);
        assert_eq!(r1, RecoverResult { seq: 1, flag: true });
    }

    #[test]
    fn failed_cas_is_not_reported_as_success() {
        let (mem, space, x) = setup(2);
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        assert!(space.cas(&t0, x, 0, 5, 1));
        assert!(!space.cas(&t1, x, 0, 9, 1), "stale expected value");
        let r1 = space.recover(&t1, x);
        assert!(
            !r1.flag || r1.seq == 0,
            "a failed CAS must never be reported as successful: {r1:?}"
        );
    }

    #[test]
    fn crash_between_announce_and_cas_reports_not_done() {
        install_quiet_crash_hook();
        let (mem, space, x) = setup(2);
        let t = mem.thread(0);
        // The cas() path is: read x (1), [notify skipped: anonymous], write announce
        // (2), CAS (3). Crash right before the CAS (after 2 more instructions).
        t.set_crash_policy(CrashPolicy::Countdown(1));
        let outcome = catch_crash(|| space.cas(&t, x, 0, 42, 1));
        assert!(outcome.is_err(), "expected the injected crash to fire");
        t.disarm_crashes();
        let r = space.recover(&t, x);
        assert!(!r.flag, "CAS never executed, recovery must not claim success");
        // Safe to repeat with the same sequence number.
        assert!(space.cas(&t, x, 0, 42, 1));
        assert_eq!(space.read(&t, x), 42);
        assert_eq!(space.recover(&t, x), RecoverResult { seq: 1, flag: true });
    }

    #[test]
    fn crash_after_cas_reports_done_and_prevents_duplicate() {
        install_quiet_crash_hook();
        let (mem, space, x) = setup(2);
        let t = mem.thread(0);
        // Instructions inside cas(): read, write (announce), cas. Crash right after
        // the final CAS lands (countdown past all three).
        t.set_crash_policy(CrashPolicy::Countdown(3));
        let outcome = catch_crash(|| {
            let ok = space.cas(&t, x, 0, 42, 1);
            // Force one more instruction so the countdown can fire after the CAS.
            let _ = space.read(&t, x);
            ok
        });
        assert!(outcome.is_err());
        t.disarm_crashes();
        let r = space.recover(&t, x);
        assert_eq!(r, RecoverResult { seq: 1, flag: true });
        // The capsule would therefore *not* repeat CAS #1; doing so anyway must fail
        // harmlessly because the expected value is stale.
        assert!(!space.cas(&t, x, 0, 42, 2));
        assert_eq!(space.read(&t, x), 42);
    }

    #[test]
    fn anonymous_cas_does_not_disturb_notifications() {
        let (mem, space, x) = setup(2);
        let t0 = mem.thread(0);
        let t1 = mem.thread(1);
        // p0's executor CAS succeeds.
        assert!(space.cas(&t0, x, 0, 5, 1));
        // p1 performs a wrap-up style anonymous CAS on the same object.
        assert!(space.cas_anonymous(&t1, x, 5, 6));
        // p0 can still learn that its CAS #1 succeeded...
        assert_eq!(space.recover(&t0, x), RecoverResult { seq: 1, flag: true });
        // ...and p1's own announcement was never touched by its anonymous CAS.
        assert_eq!(space.recover(&t1, x), RecoverResult { seq: 0, flag: false });
        let (v, pid, _) = space.read_full(&t1, x);
        assert_eq!(v, 6);
        assert_eq!(pid, space.anonymous_pid());
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let mem = PMem::with_threads(4);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, 4);
        let obj = space.create(&t0, 0);
        let x = obj.addr();
        const PER_THREAD: u64 = 5_000;
        std::thread::scope(|s| {
            for pid in 0..4 {
                let mem = &mem;
                let space = &space;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let mut seq = 0;
                    for _ in 0..PER_THREAD {
                        loop {
                            seq += 1;
                            let v = space.read(&t, x);
                            if space.cas(&t, x, v, v + 1, seq) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let t = mem.thread(0);
        assert_eq!(space.read(&t, x), 4 * PER_THREAD);
    }

    #[test]
    fn concurrent_counter_with_random_crashes_increments_exactly_once() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(3);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, 3);
        let obj = space.create(&t0, 0);
        let x = obj.addr();
        const PER_THREAD: u64 = 400;
        std::thread::scope(|s| {
            for pid in 0..3 {
                let mem = &mem;
                let space = &space;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    t.set_crash_policy(CrashPolicy::Random {
                        prob: 0.02,
                        seed: 0xC0FFEE + pid as u64,
                    });
                    // `seq` and `pending` play the role of state persisted at the
                    // previous capsule boundary: they survive the simulated crash.
                    let mut seq: u64 = 0;
                    let mut done: u64 = 0;
                    while done < PER_THREAD {
                        seq += 1;
                        let mut recovering = false;
                        // Retry the "capsule" until it completes without crashing.
                        loop {
                            let attempt = catch_crash(|| {
                                if recovering {
                                    let r = space.recover(&t, x);
                                    if r.flag && r.seq >= seq {
                                        return true; // already applied, do not repeat
                                    }
                                }
                                let v = space.read(&t, x);
                                // A failed CAS consumed this sequence number; in
                                // the real transformation the retry happens in a
                                // new capsule with a new seq. Mirror that here.
                                space.cas(&t, x, v, v + 1, seq)
                            });
                            match attempt {
                                Ok(true) => break,
                                Ok(false) => {
                                    // CAS failed cleanly (contention): new capsule.
                                    seq += 1;
                                    recovering = false;
                                }
                                Err(_) => {
                                    t.apply_crash();
                                    recovering = true;
                                }
                            }
                        }
                        done += 1;
                    }
                });
            }
        });
        let t = mem.thread(0);
        assert_eq!(
            space.read(&t, x),
            3 * PER_THREAD,
            "each logical increment must be applied exactly once despite crashes"
        );
    }

    #[test]
    fn announcement_slots_are_sharded_per_pid_group() {
        let mem = PMem::with_threads(SHARD_PIDS * 2);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, SHARD_PIDS * 2);
        // Within a shard: consecutive pids are one line apart.
        for pid in 0..SHARD_PIDS - 1 {
            assert_eq!(
                space.ann_addr(pid + 1).to_raw() - space.ann_addr(pid).to_raw(),
                LINE_WORDS,
            );
        }
        // Across the shard boundary: one padding line separates the blocks.
        assert_eq!(
            space.ann_addr(SHARD_PIDS).to_raw() - space.ann_addr(SHARD_PIDS - 1).to_raw(),
            2 * LINE_WORDS,
            "shard blocks must be separated by a padding line"
        );
        assert_eq!(space.shard_of(SHARD_PIDS - 1), 0);
        assert_eq!(space.shard_of(SHARD_PIDS), 1);
        // Every slot sits at a line boundary.
        for pid in 0..SHARD_PIDS * 2 {
            assert_eq!(space.ann_addr(pid), space.ann_addr(pid).line_base());
        }
    }

    #[test]
    fn evidence_round_trip_and_invalidation() {
        let (mem, space, x) = setup(2);
        let t = mem.thread(0);
        assert!(space.evidence(&t).is_none(), "fresh slot carries no evidence");
        assert!(space.cas_with_evidence(&t, x, 0, 10, 1, 77));
        let ev = space.evidence(&t).expect("evidence must survive the CAS");
        assert_eq!(ev.x, x);
        assert_eq!(ev.new, 10);
        assert_eq!(ev.expected, 0);
        assert_eq!(ev.aux, 77);
        assert_eq!(ev.result.seq, 1);
        // After a re-notify on the recorded object, the flag shows success.
        let r = space.recover(&t, x);
        assert!(r.flag && r.seq == 1);
        let ev = space.evidence(&t).unwrap();
        assert!(ev.result.flag);
        // A later evidence-free CAS re-announces over the slot: the stale
        // evidence no longer matches the announcement seq and must vanish.
        assert!(space.cas(&t, x, 10, 20, 2));
        assert!(space.evidence(&t).is_none());
        assert_eq!(space.announcement(&t).seq, 2);
    }

    #[test]
    fn help_group_completes_a_group_members_notification() {
        let nprocs = SHARD_PIDS + 1;
        let mem = PMem::with_threads(nprocs);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, nprocs);
        let x = space.create(&t0, 0).addr();
        // p0 wins an evidence-carrying CAS and "crashes" before anyone notices.
        assert!(space.cas_with_evidence(&t0, x, 0, 5, 1, 0));
        assert!(!RecoverResult::unpack(t0.read(space.ann_addr(0))).flag);
        // A pid outside p0's shard scans only its own (empty) group.
        let t_far = mem.thread(SHARD_PIDS);
        assert_eq!(space.help_group(&t_far), 0);
        assert!(
            !RecoverResult::unpack(t_far.read(space.ann_addr(0))).flag,
            "helpers must not scan outside their shard"
        );
        // A group member's scan finds the pending attempt and notifies it.
        let t1 = mem.thread(1);
        assert_eq!(space.help_group(&t1), 1);
        let r = RecoverResult::unpack(t1.read(space.ann_addr(0)));
        assert!(r.flag && r.seq == 1, "help_group must complete the notify: {r:?}");
        // p0 itself is skipped by its own scan.
        assert_eq!(space.help_group(&t0), 0);
    }

    #[test]
    fn seq_exhaustion_surfaces_as_typed_error_not_a_panic() {
        // Regression (million-key scenario): a narrow seq field exhausts mid-run
        // and `pack` panics with the "ABA hazard" assert. `try_cas` must instead
        // return the typed error, with no protocol side effects.
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let layout = RcasLayout::new(52, 6, 6); // 63-op seq ceiling
        let space = RcasSpace::new(&t, 1, layout);
        let x = space.create(&t, 0).addr();
        // Drive the single pid all the way to the ceiling...
        let mut v = 0;
        for seq in 1..=layout.max_seq() {
            assert_eq!(space.try_cas(&t, x, v, v + 1, seq), Ok(true));
            v += 1;
        }
        assert_eq!(space.read(&t, x), layout.max_seq());
        // ...one more op exhausts the field: typed error at the call site.
        let over = layout.max_seq() + 1;
        assert_eq!(
            space.try_cas(&t, x, v, v + 1, over),
            Err(PackError::SeqExhausted { seq: over, bits: 6 })
        );
        assert_eq!(space.read(&t, x), v, "failed encode must leave the object untouched");
        assert_eq!(
            space.announcement(&t).seq,
            layout.max_seq(),
            "failed encode must not announce"
        );
    }

    #[test]
    #[should_panic]
    fn nprocs_must_leave_room_for_anonymous_pid() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        // max pid for the default layout is 63; 63 processes is fine, 64 is not.
        let _ = RcasSpace::new(&t, 64, RcasLayout::DEFAULT);
    }
}
