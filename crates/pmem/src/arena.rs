//! The persistent word arena.
//!
//! Persistent memory is a flat array of 64-bit words, stored in lazily created
//! fixed-size segments so that allocation never moves existing words (threads hold
//! raw indices across the whole run). Each word carries two values:
//!
//! * `current` — what a load observes (the cache contents in the shared-cache
//!   model, the memory contents in the private-cache model), and
//! * `persisted` — what survives a simulated crash in the shared-cache model.
//!
//! Flushing a cache line copies `current` into `persisted` for the 8 words of the
//! line; a full-system crash copies `persisted` back into `current` for every
//! allocated word. In the private-cache model the `persisted` half is unused
//! (shared memory is durable by definition) and crashes do not touch memory.
//!
//! ## Atomic orderings
//!
//! This module sits on the hot path of every simulated instruction, so each atomic
//! access uses the weakest ordering that preserves the simulated machine's
//! semantics (the per-site reasoning is on each method; the model-level argument is
//! DESIGN.md §5):
//!
//! * `current` uses `Acquire`/`Release` (`AcqRel` for RMWs). All cross-thread
//!   hand-off in the paper's algorithms goes through a CAS or a read of a word
//!   another thread published with a write, so release/acquire pairs on the
//!   *simulated* word carry exactly the happens-before edges the modelled
//!   sequentially consistent machine would provide to those algorithms. The
//!   simulator's own [`fence`](crate::PThread::fence) additionally issues a real
//!   `SeqCst` fence.
//! * `persisted` is *read* `Relaxed`, under quiescence only — crash rollback and
//!   [`durable`](Word::durable) assertions run after every worker has been joined
//!   or unwound, and the join/catch itself is the synchronising edge. It is
//!   *written* by flushes with a `SeqCst` swap-then-verify
//!   ([`Word::write_back`]): "a value that was `current` at some point" is not
//!   enough once two processes flush one line, because the older of two such
//!   values can land last. Only writers that cannot race (quiescent walks, the
//!   private-cache model, one-process machines) keep the `Relaxed` copy.
//! * the allocation cursor `next` uses `Relaxed` RMWs: it is a monotone counter
//!   whose atomicity (not its ordering) provides disjointness, and addresses only
//!   reach other threads through `current` (release/acquire) after allocation.
//! * segment publication relies on `OnceLock`'s internal `Release`/`Acquire` pair,
//!   plus a `segments_ready` high-watermark (`Release` on grow, `Acquire` on read)
//!   so the common "capacity already there" allocation never rescans the table.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::addr::PAddr;
use crate::LINE_WORDS;

/// Number of words per segment (1 MiWords = 8 MiB of `current` + 8 MiB of shadow).
/// A multiple of [`LINE_WORDS`], so a cache line never straddles two segments.
pub const SEGMENT_WORDS: usize = 1 << 20;

/// Maximum number of segments (caps the arena at 64 Gi words; far more than any
/// test or benchmark needs, while keeping the segment table small).
pub const MAX_SEGMENTS: usize = 1 << 16;

/// One simulated persistent word: the cached value and the durable value.
#[derive(Debug)]
pub struct Word {
    current: AtomicU64,
    persisted: AtomicU64,
}

impl Word {
    fn new() -> Word {
        Word {
            current: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
        }
    }

    /// Load the cached value. `Acquire`: pairs with [`store`](Word::store) /
    /// successful [`compare_exchange`](Word::compare_exchange) releases, so a
    /// reader that observes a published pointer also observes the writes made
    /// before it was published.
    #[inline]
    pub fn load(&self) -> u64 {
        self.current.load(Ordering::Acquire)
    }

    /// Store to the cached value. `Release`: publishes earlier writes to any
    /// thread that `Acquire`-loads this word (on x86-64 this is a plain `mov`
    /// where the previous `SeqCst` store compiled to an `xchg`, which is the
    /// single biggest per-instruction saving in the simulator).
    #[inline]
    pub fn store(&self, v: u64) {
        self.current.store(v, Ordering::Release)
    }

    /// Compare-and-swap on the cached value; returns the witnessed value on
    /// failure. `AcqRel` on success (the CAS both publishes and observes),
    /// `Acquire` on failure (the witnessed value may be a pointer to follow).
    #[inline]
    pub fn compare_exchange(&self, expected: u64, new: u64) -> Result<u64, u64> {
        self.current
            .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomic fetch-and-add on the cached value (`AcqRel`, as for a CAS).
    #[inline]
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.current.fetch_add(delta, Ordering::AcqRel)
    }

    /// Copy the cached value into the durable copy (what a `clflushopt` does once
    /// the following fence completes; the simulator persists eagerly at the flush).
    ///
    /// A `Relaxed` load-then-store, so only sound when no second flusher can
    /// touch the word concurrently: quiescent walks ([`Arena::persist_all`]),
    /// the private-cache model (whose durable copy is never rolled back to),
    /// and one-process machines. Everything else uses
    /// [`write_back`](Word::write_back).
    #[inline]
    pub fn persist_now(&self) {
        self.persisted
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Write the cached value back to the durable copy when other processes may
    /// be flushing (or storing to) the same word: a clean word is left alone,
    /// a dirty one is written back and *re-checked* until the durable copy
    /// holds a value that was still current after it landed.
    ///
    /// The re-check closes the stale write-back race of a plain
    /// load-then-store: flusher A loads `v1`, owner B CASes the word to `v2`
    /// and writes `v2` back, A's delayed store then overwrites the durable
    /// `v2` with `v1` — an acknowledged update lost at the next crash. Several
    /// nodes and bucket heads share one line, so two processes flush one line
    /// for *different* words all the time.
    #[inline]
    pub fn write_back(&self) {
        if let Some(seen) = self.write_back_begin() {
            self.write_back_finish(seen);
        }
    }

    /// First half of [`write_back`](Word::write_back): load the cached value;
    /// `None` when the durable copy already equals it (nothing to do). Split
    /// out so a test can interleave a second flusher between the halves.
    #[inline]
    pub fn write_back_begin(&self) -> Option<u64> {
        let seen = self.current.load(Ordering::Relaxed);
        (self.persisted.load(Ordering::Relaxed) != seen).then_some(seen)
    }

    /// Second half of [`write_back`](Word::write_back): store `seen`, then
    /// verify it is still current and repeat with the newer value otherwise.
    ///
    /// Every durable-copy store outside quiescence is this swap, an RMW, so
    /// the swaps on one word form one release sequence: a swap that lands
    /// after a peer's synchronizes with it, hence happens-after the load of
    /// `current` that produced the peer's value, and the re-load below cannot
    /// return anything older than that value. Whichever swap is last in the
    /// durable copy's modification order therefore wrote a value at least as
    /// new as every value a completed write-back confirmed.
    #[inline]
    pub fn write_back_finish(&self, mut seen: u64) {
        loop {
            // SeqCst: an RMW, so later write-backs synchronize with this one
            // (the release-sequence argument above).
            self.persisted.swap(seen, Ordering::SeqCst);
            // SeqCst: with the swap, a store→load barrier — the check that
            // `seen` is still current may not pass the store that landed it.
            let now = self.current.load(Ordering::SeqCst);
            if now == seen {
                return;
            }
            seen = now;
        }
    }

    /// Roll the cached value back to the durable copy (a crash). Quiescent by
    /// contract (see [`Arena::rollback_all`]), hence `Relaxed`.
    #[inline]
    pub fn rollback(&self) {
        self.current
            .store(self.persisted.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Read the durable copy (used by tests asserting durability invariants,
    /// under quiescence).
    #[inline]
    pub fn durable(&self) -> u64 {
        self.persisted.load(Ordering::Relaxed)
    }

    /// Whether the durable copy already equals the cached value, i.e. a flush
    /// of this word would be a no-op. Racy by nature (a concurrent store can
    /// land between the two loads); only [`Stats::duplicate_flushes`]
    /// accounting reads it, never a decision about what to persist.
    ///
    /// [`Stats::duplicate_flushes`]: crate::Stats::duplicate_flushes
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.persisted.load(Ordering::Relaxed) == self.current.load(Ordering::Relaxed)
    }
}

/// Process-global arena identity counter. Identities start at 1 so that 0 can
/// serve as "no arena" in caches keyed by identity.
static NEXT_ARENA_ID: AtomicU64 = AtomicU64::new(1);

/// Lazily grown, never-moving array of persistent words.
pub struct Arena {
    /// Process-unique identity. Per-thread `(segment, slice)` caches are keyed
    /// by this, so a handle whose machine swaps to (or recovers onto) a
    /// different arena can never serve a stale slice from the old one.
    id: u64,
    segments: Box<[OnceLock<Box<[Word]>>]>,
    /// Bump-allocation cursor (word index of the next free word).
    next: AtomicU64,
    /// High-watermark: every segment below this index is initialised. Lets
    /// `ensure_capacity` answer the common "already big enough" case with one
    /// `Acquire` load instead of rescanning the segment table from 0.
    segments_ready: AtomicUsize,
    /// Serialises segment creation (not on the access fast path).
    grow_lock: Mutex<()>,
}

impl Arena {
    /// Create an arena whose first `reserved` words (at least 1, for the null word)
    /// are pre-allocated and considered reserved for the system area.
    pub fn new(reserved: u64) -> Arena {
        let reserved = reserved.max(1);
        let mut segments = Vec::with_capacity(MAX_SEGMENTS);
        segments.resize_with(MAX_SEGMENTS, OnceLock::new);
        let arena = Arena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            segments: segments.into_boxed_slice(),
            next: AtomicU64::new(reserved),
            segments_ready: AtomicUsize::new(0),
            grow_lock: Mutex::new(()),
        };
        arena.ensure_capacity(reserved);
        arena
    }

    /// This arena's process-unique identity (never 0, never reused within a
    /// process). Two arenas always compare unequal, even if their contents are
    /// word-for-word identical.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The index one past the highest allocated word.
    ///
    /// `Relaxed`: a monotone counter. Callers that iterate up to it (rollback,
    /// persist-all) run under quiescence, where thread join already ordered every
    /// allocation before the load.
    pub fn allocated_words(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn ensure_capacity(&self, upto_word: u64) {
        if upto_word == 0 {
            // A zero-allocation arena owns no words: there is no segment to
            // create, and the rollback/persist walks below must see an empty
            // range. The historical `.max(1)` here silently materialised (and
            // walked) segment 0 for a capacity request of nothing.
            return;
        }
        let last_segment = ((upto_word - 1) / SEGMENT_WORDS as u64) as usize;
        assert!(
            last_segment < MAX_SEGMENTS,
            "simulated persistent memory exhausted ({} segments)",
            MAX_SEGMENTS
        );
        // Fast path: the watermark says everything up to `last_segment` exists.
        if last_segment < self.segments_ready.load(Ordering::Acquire) {
            return;
        }
        let _guard = self.grow_lock.lock();
        // All growth happens under the lock, so the watermark is stable here and
        // segments below it never need re-checking. A concurrent grower may have
        // already raised it past our target, so only ever move it up.
        let ready = self.segments_ready.load(Ordering::Acquire);
        for seg in ready..=last_segment {
            self.segments[seg].get_or_init(|| {
                let mut words = Vec::with_capacity(SEGMENT_WORDS);
                words.resize_with(SEGMENT_WORDS, Word::new);
                words.into_boxed_slice()
            });
        }
        if last_segment + 1 > ready {
            self.segments_ready
                .store(last_segment + 1, Ordering::Release);
        }
    }

    /// Bump-allocate `nwords` consecutive words and return the address of the first.
    ///
    /// Allocations never straddle a cache line *unless* they are larger than a line,
    /// so that single-record flushes behave like they would on real hardware.
    pub fn alloc(&self, nwords: u64) -> PAddr {
        assert!(nwords > 0, "zero-sized persistent allocation");
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            // Avoid straddling a cache line for sub-line allocations.
            let line_off = cur % LINE_WORDS;
            let base = if nwords <= LINE_WORDS && line_off + nwords > LINE_WORDS {
                cur + (LINE_WORDS - line_off)
            } else {
                cur
            };
            let end = base + nwords;
            // `Relaxed` RMW: atomicity alone makes the claimed ranges disjoint;
            // the address only becomes visible to other threads through a
            // release/acquire chain on `current` (or a thread spawn/join).
            if self
                .next
                .compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.ensure_capacity(end);
                return PAddr(base);
            }
        }
    }

    /// Bump-allocate `nwords` consecutive words starting at a cache-line boundary.
    /// Used for records whose flush behaviour must not depend on allocation order
    /// (e.g. capsule frames).
    pub fn alloc_aligned(&self, nwords: u64) -> PAddr {
        assert!(nwords > 0, "zero-sized persistent allocation");
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            let base = (cur + LINE_WORDS - 1) & !(LINE_WORDS - 1);
            let end = base + nwords;
            if self
                .next
                .compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.ensure_capacity(end);
                return PAddr(base);
            }
        }
    }

    /// The initialised segment `seg`, if it exists. `OnceLock::get` provides the
    /// `Acquire` pairing with the initialiser's `Release`, so the returned slice's
    /// words are fully constructed. Used by `PThread`'s per-thread segment cache.
    #[inline]
    pub(crate) fn segment(&self, seg: usize) -> Option<&[Word]> {
        self.segments.get(seg)?.get().map(|b| &b[..])
    }

    /// Access a word. Panics if the address was never allocated.
    #[inline]
    pub fn word(&self, addr: PAddr) -> &Word {
        debug_assert!(!addr.is_null(), "dereferencing the null PAddr");
        let idx = addr.0 as usize;
        let segment = self
            .segment(idx / SEGMENT_WORDS)
            .unwrap_or_else(|| panic!("access to unallocated persistent address {addr:?}"));
        &segment[idx % SEGMENT_WORDS]
    }

    /// The whole cache line containing `addr`, as a slice — the segment is
    /// resolved once for all [`LINE_WORDS`] words. A line never straddles
    /// segments ([`SEGMENT_WORDS`] is a multiple of [`LINE_WORDS`]), and the
    /// reserved null word 0 is included when `addr` is on line 0 (flushing or
    /// rolling back the never-written null word is a no-op copy of 0 over 0), so
    /// the range is the full physical line with no per-call clamping.
    #[inline]
    pub fn line_slice(&self, addr: PAddr) -> &[Word] {
        let base = addr.line_base().0 as usize;
        let segment = self
            .segment(base / SEGMENT_WORDS)
            .unwrap_or_else(|| panic!("flush of unallocated persistent address {addr:?}"));
        let off = base % SEGMENT_WORDS;
        &segment[off..off + LINE_WORDS as usize]
    }

    /// Persist every word of the cache line containing `addr`.
    ///
    /// The line range is single-sourced through [`line_slice`](Arena::line_slice):
    /// the full physical line is persisted, including words past the current
    /// allocation frontier (they are still durably zero, which is exactly the
    /// freshly-allocated contract) — the historical per-word clamp to
    /// `allocated_words()` silently skipped the tail of a partially allocated
    /// line.
    pub fn flush_line(&self, addr: PAddr) {
        for word in self.line_slice(addr) {
            word.write_back();
        }
    }

    /// Run `f` over every allocated word, walking whole segment slices (one
    /// segment-table resolution per [`SEGMENT_WORDS`] words instead of one per
    /// word).
    fn for_each_allocated(&self, f: impl Fn(&Word)) {
        let limit = self.allocated_words() as usize;
        let mut done = 0usize;
        for seg in self.segments.iter() {
            if done >= limit {
                break;
            }
            let Some(words) = seg.get() else { break };
            let take = (limit - done).min(SEGMENT_WORDS);
            for word in &words[..take] {
                f(word);
            }
            done += take;
        }
    }

    /// Roll every allocated word back to its durable copy (a full-system crash in
    /// the shared-cache model). The caller must guarantee quiescence: no other
    /// thread may be executing simulated instructions during the rollback.
    pub fn rollback_all(&self) {
        self.for_each_allocated(Word::rollback);
    }

    /// Persist every allocated word (used to establish a consistent initial state
    /// before an experiment starts injecting crashes). Quiescent, like
    /// [`rollback_all`](Arena::rollback_all).
    pub fn persist_all(&self) {
        self.for_each_allocated(Word::persist_now);
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("allocated_words", &self.allocated_words())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_identities_are_unique_and_nonzero() {
        let a = Arena::new(8);
        let b = Arena::new(8);
        assert_ne!(a.id(), 0);
        assert_ne!(b.id(), 0);
        assert_ne!(a.id(), b.id(), "two arenas must never share an identity");
    }

    #[test]
    fn alloc_returns_distinct_non_null_addresses() {
        let arena = Arena::new(8);
        let a = arena.alloc(1);
        let b = arena.alloc(1);
        assert!(!a.is_null());
        assert!(!b.is_null());
        assert_ne!(a, b);
    }

    #[test]
    fn alloc_does_not_straddle_lines_for_small_records() {
        let arena = Arena::new(8);
        // Allocate 3-word records repeatedly; none should straddle a line boundary.
        for _ in 0..100 {
            let a = arena.alloc(3);
            let start_line = a.line_base();
            let end_line = PAddr(a.0 + 2).line_base();
            assert_eq!(start_line, end_line, "3-word record straddles a cache line");
        }
    }

    #[test]
    fn large_allocations_may_span_lines() {
        let arena = Arena::new(8);
        let a = arena.alloc(100);
        // All 100 words must be addressable.
        for i in 0..100 {
            arena.word(a.offset(i)).store(i);
        }
        for i in 0..100 {
            assert_eq!(arena.word(a.offset(i)).load(), i);
        }
    }

    #[test]
    fn store_load_round_trip() {
        let arena = Arena::new(8);
        let a = arena.alloc(1);
        arena.word(a).store(123);
        assert_eq!(arena.word(a).load(), 123);
    }

    #[test]
    fn cas_succeeds_and_fails_correctly() {
        let arena = Arena::new(8);
        let a = arena.alloc(1);
        arena.word(a).store(5);
        assert_eq!(arena.word(a).compare_exchange(5, 6), Ok(5));
        assert_eq!(arena.word(a).compare_exchange(5, 7), Err(6));
        assert_eq!(arena.word(a).load(), 6);
    }

    #[test]
    fn rollback_reverts_unflushed_writes() {
        let arena = Arena::new(8);
        let a = arena.alloc(1);
        arena.word(a).store(1);
        arena.flush_line(a);
        arena.word(a).store(2);
        // Not flushed: a crash loses the 2.
        arena.rollback_all();
        assert_eq!(arena.word(a).load(), 1);
    }

    #[test]
    fn delayed_write_back_cannot_overwrite_a_newer_durable_value() {
        // The stale write-back race, replayed by hand: flusher A reads `v1`,
        // owner B stores `v2` and writes it back, then A's delayed half runs.
        // A plain load-then-store leaves `v1` durable; the verified write-back
        // must leave `v2`.
        let arena = Arena::new(8);
        let w = arena.word(arena.alloc(1));
        w.store(1);
        let seen_by_a = w.write_back_begin().expect("dirty word");
        assert_eq!(seen_by_a, 1);
        w.store(2);
        w.write_back();
        assert_eq!(w.durable(), 2);
        w.write_back_finish(seen_by_a);
        assert_eq!(w.durable(), 2, "A's stale write-back must not survive");
        assert!(w.write_back_begin().is_none(), "a clean word needs no write-back");
    }

    #[test]
    fn flush_line_persists_all_words_in_line() {
        let arena = Arena::new(8);
        let a = arena.alloc(8); // a whole line
        for i in 0..8 {
            arena.word(a.offset(i)).store(100 + i);
        }
        arena.flush_line(a.offset(3)); // flushing any word flushes the line
        arena.rollback_all();
        for i in 0..8 {
            assert_eq!(arena.word(a.offset(i)).load(), 100 + i);
        }
    }

    #[test]
    fn flush_on_line_zero_covers_the_reserved_words() {
        // Line 0 holds the reserved null word; flushing an address on that line
        // must persist the whole line without panicking or skipping words
        // (regression test for the old `.max(1)` / unclamped-bound mismatch).
        let arena = Arena::new(8);
        for i in 1..LINE_WORDS {
            arena.word(PAddr(i)).store(i * 10);
        }
        arena.flush_line(PAddr(1));
        arena.rollback_all();
        for i in 1..LINE_WORDS {
            assert_eq!(arena.word(PAddr(i)).load(), i * 10, "word {i} lost by line-0 flush");
        }
        // The null word itself stays durably zero.
        assert_eq!(arena.line_slice(PAddr(1))[0].durable(), 0);
    }

    #[test]
    fn flush_at_the_allocation_frontier_persists_the_whole_line() {
        // Regression test: a flush of a partially allocated line used to clamp
        // the range to `allocated_words()`, so words of the same record's line
        // allocated *later* started from a stale durable image. The range is
        // now the full physical line.
        let arena = Arena::new(LINE_WORDS); // next allocation starts a fresh line
        let a = arena.alloc(3); // frontier is now a+3, mid-line
        assert_eq!(a.0 % LINE_WORDS, 0, "test setup: record at line start");
        for i in 0..3 {
            arena.word(a.offset(i)).store(7 + i);
        }
        arena.flush_line(a); // must cover all 8 physical words, not just 3
        let line = arena.line_slice(a);
        for (i, word) in line.iter().enumerate() {
            let expected = if i < 3 { 7 + i as u64 } else { 0 };
            assert_eq!(word.durable(), expected, "word {i} of frontier line");
        }
        // Extending the allocation into the same line and crashing yields the
        // allocation contract: fresh words are durably zero.
        let b = arena.alloc(2);
        assert_eq!(b.line_base(), a.line_base(), "test setup: same line");
        arena.word(b).store(99); // never flushed
        arena.rollback_all();
        assert_eq!(arena.word(b).load(), 0, "unflushed fresh word rolls back to zero");
        assert_eq!(arena.word(a).load(), 7, "flushed word survives");
    }

    #[test]
    fn line_slice_is_line_aligned_and_full_length() {
        let arena = Arena::new(8);
        let a = arena.alloc(LINE_WORDS);
        for off in 0..LINE_WORDS {
            let slice = arena.line_slice(a.offset(off));
            assert_eq!(slice.len(), LINE_WORDS as usize);
            // Same physical line regardless of which word resolved it.
            assert!(std::ptr::eq(slice.as_ptr(), arena.line_slice(a).as_ptr()));
        }
    }

    #[test]
    fn persist_all_makes_everything_durable() {
        let arena = Arena::new(8);
        let a = arena.alloc(4);
        for i in 0..4 {
            arena.word(a.offset(i)).store(i + 1);
        }
        arena.persist_all();
        arena.rollback_all();
        for i in 0..4 {
            assert_eq!(arena.word(a.offset(i)).load(), i + 1);
        }
    }

    #[test]
    fn crossing_segment_boundary_works() {
        let arena = Arena::new(8);
        // Allocate past the first segment.
        let big = arena.alloc(SEGMENT_WORDS as u64 + 16);
        let last = big.offset(SEGMENT_WORDS as u64 + 15);
        arena.word(last).store(77);
        assert_eq!(arena.word(last).load(), 77);
    }

    #[test]
    fn multi_segment_rollback_round_trips() {
        // Quiescent crash/rollback across a segment boundary: persisted values
        // survive, unpersisted ones roll back, in both segments.
        let arena = Arena::new(8);
        let big = arena.alloc(SEGMENT_WORDS as u64 + 64);
        let in_seg0 = big;
        let in_seg1 = big.offset(SEGMENT_WORDS as u64 + 8);
        arena.word(in_seg0).store(1);
        arena.word(in_seg1).store(2);
        arena.persist_all();
        arena.word(in_seg0).store(10);
        arena.word(in_seg1).store(20);
        arena.rollback_all();
        assert_eq!(arena.word(in_seg0).load(), 1);
        assert_eq!(arena.word(in_seg1).load(), 2);
        arena.word(in_seg1).store(30);
        arena.flush_line(in_seg1);
        arena.rollback_all();
        assert_eq!(arena.word(in_seg1).load(), 30);
    }

    #[test]
    fn ensure_capacity_watermark_tracks_growth() {
        let arena = Arena::new(8);
        assert_eq!(arena.segments_ready.load(Ordering::Acquire), 1);
        let _ = arena.alloc(SEGMENT_WORDS as u64 * 2);
        assert!(arena.segments_ready.load(Ordering::Acquire) >= 3);
        // Allocating below the watermark must not move it.
        let ready = arena.segments_ready.load(Ordering::Acquire);
        let _ = arena.alloc(4);
        assert_eq!(arena.segments_ready.load(Ordering::Acquire), ready);
    }

    #[test]
    fn concurrent_allocation_yields_disjoint_ranges() {
        use std::sync::Arc;
        let arena = Arc::new(Arena::new(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let arena = Arc::clone(&arena);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| arena.alloc(2).0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "allocations overlapped");
    }

    #[test]
    #[should_panic]
    fn zero_sized_alloc_panics() {
        let arena = Arena::new(8);
        let _ = arena.alloc(0);
    }

    #[test]
    fn zero_allocation_arena_creates_and_walks_no_segments() {
        // Regression test at the zero-allocation boundary: an arena holding no
        // words must not materialise segment 0 on `ensure_capacity(0)`, and the
        // rollback/persist walks must be empty rather than touching words that
        // were never allocated. (`Arena::new` always reserves the null word, so
        // the truly empty arena is built field-by-field here.)
        let mut segments = Vec::with_capacity(MAX_SEGMENTS);
        segments.resize_with(MAX_SEGMENTS, OnceLock::new);
        let arena = Arena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            segments: segments.into_boxed_slice(),
            next: AtomicU64::new(0),
            segments_ready: AtomicUsize::new(0),
            grow_lock: Mutex::new(()),
        };
        arena.ensure_capacity(0);
        assert_eq!(
            arena.segments_ready.load(Ordering::Acquire),
            0,
            "ensure_capacity(0) must not raise the watermark"
        );
        assert!(arena.segment(0).is_none(), "segment 0 must not be created");
        // The quiescent walks are bounded by allocated_words() == 0: they must
        // complete without creating or visiting any segment.
        arena.rollback_all();
        arena.persist_all();
        assert!(arena.segment(0).is_none());
        assert_eq!(arena.allocated_words(), 0);
        // And the first real capacity request still works as before.
        arena.ensure_capacity(1);
        assert!(arena.segment(0).is_some());
        assert_eq!(arena.segments_ready.load(Ordering::Acquire), 1);
    }
}
