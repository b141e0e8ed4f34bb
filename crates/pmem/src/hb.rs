//! Vector-clock happens-before analyzer (`DF_HB`): data races and
//! persist-order (cross-failure) races over the simulated instruction stream —
//! the workspace's one persist-order checker.
//!
//! It checks *ordering*, the correctness criterion of "The Path to Durable
//! Linearizability": it maintains FastTrack-style vector clocks per process and
//! per word, draws release/acquire edges from CAS/fetch-add sites and the
//! documented [`write_release`](crate::PThread::write_release) annotations,
//! and flags
//!
//! 1. **data races** — two conflicting plain-word accesses with no
//!    happens-before path between them, and
//! 2. **cross-failure races** — a post-crash read of a word whose last write
//!    was *not* flush+fence ordered before the crash point while a publishing
//!    CAS that made the word reachable may have persisted.
//!
//! The simulator persists eagerly at the flush, so a skipped `fence` can never
//! change a replay's durable image — but on the modelled machine `clflushopt`
//! without `sfence` is unordered and may not have completed at the crash. The
//! analyzer therefore tracks the *discipline*, not the simulated outcome: a
//! word counts as durably ordered only once some thread that flushed its line
//! issues a fence **or a locked RMW** (see below), and a publishing CAS counts
//! as possibly-durable once its own line was flushed at all. This is exactly
//! the strictness that catches the "flush without ordering before the
//! publication" bug class, which is invisible to the eager-persist replay.
//!
//! ## What a publication exposes
//!
//! A publication by `pid` exposes every word `pid` left dirty — written, not
//! yet flush+fence ordered — on *another* line (same-line words persist in
//! order with the publisher). Plain words are exposed by any publication: a
//! successful CAS, a fetch-add or a
//! [`write_release`](crate::PThread::write_release). Synchronization words
//! (anything CASed, fetch-added or release-written — an rcas announcement
//! above all) are exposed only by a **locked RMW**: recovery consults the
//! announcement as its evidence, so it must be durable before the CAS that
//! publishes past it (Cho et al., "Practical Detectability"). A release store
//! does not expose them: it is a plain `mov`, and a sync word it leaves
//! behind (a notify flag flushed but not yet fenced, say) is ordered by the
//! locked CAS that follows, which stays the publication that counts.
//!
//! ## What orders a flush
//!
//! Following the Px86 persistency model (Raad et al., POPL 2020), `clflushopt`
//! is ordered by `sfence`/`mfence` *and by lock-prefixed read-modify-write
//! instructions* — a CAS (successful or not) or fetch-add drains the issuing
//! thread's pending flushes exactly like a fence. This is the rule the
//! paper's §9 fence elision relies on: the `-Opt` variants (and the log
//! queue's claim protocol) issue `flush(line); cas(...)` with no fence, which
//! is sound because the locked CAS both orders the flush and publishes. A
//! plain or [`write_release`](crate::PThread::write_release) store is a plain
//! `mov` on x86 and orders nothing — flush-then-release-store publication
//! without an intervening fence is still flagged.
//!
//! Arming: `DF_HB=1` arms every machine the
//! process builds (shared-cache model only), [`HbAnalyzer::arm`] arms one
//! machine, and the per-thread fast flag lives in the packed `hot_armed` byte
//! so the disarmed fast path is unchanged. While armed, each instruction's
//! memory access runs under the analyzer lock, which linearizes armed accesses
//! — the analyzer's view of the interleaving is exactly the order the accesses
//! actually executed in, so truly concurrent tests cannot produce spurious
//! inversion-of-observation flags.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::addr::PAddr;

/// Reports are capped so a systematically broken workload cannot OOM the
/// analyzer; the flag *counters* keep counting past the cap.
const MAX_REPORTS: usize = 32;

/// One recorded access to a plain word: who, at which epoch of their own
/// clock, and at which per-thread instruction step (for reports).
#[derive(Clone, Copy, Debug)]
struct Access {
    pid: usize,
    epoch: u64,
    step: u64,
}

/// Per-word analyzer state.
#[derive(Default)]
struct WordState {
    /// `Some` once the word has been the target of a CAS / fetch-add /
    /// `write_release`: the word is a synchronization word carrying a release
    /// clock, and plain accesses to it acquire instead of being race-checked.
    sync: Option<Vec<u64>>,
    /// Last plain write (plain words only).
    last_write: Option<Access>,
    /// Plain reads since the last write, at most one per pid.
    reads: Vec<Access>,
}

/// A word written since it was last durably ordered (flush+fence), tracked per
/// cache line so `flush` can mark every word of the line at once.
struct DirtyWord {
    addr: u64,
    pid: usize,
    step: u64,
    /// Bit `pid % 64` set once `pid` flushed this line after the write; the
    /// word is promoted (durably ordered) when any such pid fences.
    flushed_mask: u64,
}

/// A plain word that was still dirty when a synchronization write by the same
/// pid published on another line — the word may be reachable by recovery while
/// its persist is not ordered before a crash. Keyed by `(arena, word)`.
struct Exposure {
    writer: usize,
    write_step: u64,
    publisher: u64,
    publish_step: u64,
    /// The publishing word itself was durably ordered (flush+fence) after the
    /// publication — the exposure survives a crash even in the strict model.
    durable: bool,
}

/// Mutable analyzer state, all under one mutex (the armed instruction paths
/// take it around the actual memory access).
///
/// Dirty words are indexed per pid as well as per line, so a fence, a locked
/// RMW or a publication costs what the *issuing* pid flushed or wrote since,
/// not what the whole machine has left dirty: a long run that never flushes
/// (the plain-memory stress tests) would otherwise make every CAS walk every
/// word ever written, under the lock the other threads spin on. Both indexes
/// are validated against `lines` when consumed, so a rewrite or a promotion
/// leaves a stale entry behind instead of searching every index.
#[derive(Default)]
pub(crate) struct HbInner {
    flags: u64,
    /// Per-pid vector clocks. An empty inner vec means the pid has not been
    /// seen yet; initialization sets `clocks[p][p] = 1` so that a fresh pid's
    /// accesses are unordered w.r.t. everyone it has not synchronized with.
    clocks: Vec<Vec<u64>>,
    /// `(arena id, word addr)` → clock state.
    words: HashMap<(u64, u64), WordState>,
    /// `(arena id, line base)` → dirty words of the line.
    lines: HashMap<(u64, u64), Vec<DirtyWord>>,
    /// Per pid: the `(arena, word)`s it flushed since they were last written —
    /// what its next fence promotes.
    flushed: Vec<HashSet<(u64, u64)>>,
    /// `(arena, pid)` → dirty words `pid` wrote that no publication of its has
    /// exposed yet.
    unexposed: HashMap<(u64, usize), HashSet<u64>>,
    /// `(arena, word)` → the publication that exposed it.
    exposures: HashMap<(u64, u64), Exposure>,
    /// `(arena, publisher)` → the words its publications exposed.
    published: HashMap<(u64, u64), Vec<u64>>,
    /// Words destroyed (in the ordering model) by a crash while reachable:
    /// reading one of these post-crash is the cross-failure race. The value is
    /// the pre-computed "why" half of the report.
    lost: HashMap<(u64, u64), String>,
    reports: Vec<String>,
}

fn clk(c: &[u64], q: usize) -> u64 {
    c.get(q).copied().unwrap_or(0)
}

fn join(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (i, v) in from.iter().enumerate() {
        if *v > into[i] {
            into[i] = *v;
        }
    }
}

fn push_report(reports: &mut Vec<String>, msg: String) {
    if reports.len() < MAX_REPORTS {
        reports.push(msg);
    }
}

fn line_base(addr: u64) -> u64 {
    addr & !(crate::LINE_WORDS - 1)
}
impl HbInner {
    fn ensure_pid(&mut self, pid: usize) {
        if self.clocks.len() <= pid {
            self.clocks.resize_with(pid + 1, Vec::new);
        }
        if clk(&self.clocks[pid], pid) == 0 {
            if self.clocks[pid].len() <= pid {
                self.clocks[pid].resize(pid + 1, 0);
            }
            self.clocks[pid][pid] = 1;
        }
    }

    /// Handle-creation / scheduler-registration edge: everything every known
    /// pid has done so far happens-before what `pid` does next, and what the
    /// peers do *after* this point stays unordered (their epochs advance).
    /// This over-approximates the host-language spawn/registration edge that
    /// created the handle — handles are `!Send`, so a handle used on a thread
    /// was created on it, after a real synchronization edge from its creator.
    pub(crate) fn on_thread(&mut self, pid: usize) {
        self.ensure_pid(pid);
        let mut joined: Vec<u64> = Vec::new();
        for c in &self.clocks {
            join(&mut joined, c);
        }
        join(&mut self.clocks[pid], &joined);
        for (q, c) in self.clocks.iter_mut().enumerate() {
            if q != pid && clk(c, q) != 0 {
                c[q] += 1;
            }
        }
    }

    fn mark_dirty(&mut self, arena: u64, addr: u64, pid: usize, step: u64) {
        let words = self.lines.entry((arena, line_base(addr))).or_default();
        if let Some(d) = words.iter_mut().find(|d| d.addr == addr) {
            d.pid = pid;
            d.step = step;
            d.flushed_mask = 0;
        } else {
            words.push(DirtyWord {
                addr,
                pid,
                step,
                flushed_mask: 0,
            });
        }
        self.unexposed.entry((arena, pid)).or_default().insert(addr);
    }

    /// The dirty record of a word, if it is dirty.
    fn dirty(&self, arena: u64, addr: u64) -> Option<&DirtyWord> {
        self.lines
            .get(&(arena, line_base(addr)))?
            .iter()
            .find(|d| d.addr == addr)
    }

    fn check_lost_read(&mut self, arena: u64, addr: PAddr, pid: usize, step: u64) -> u64 {
        if let Some(why) = self.lost.remove(&(arena, addr.0)) {
            self.flags += 1;
            push_report(
                &mut self.reports,
                format!(
                    "cross-failure race: pid {pid} read {addr:?} at step {step} after a crash, \
                     but {why}"
                ),
            );
            1
        } else {
            0
        }
    }

    /// Plain read. Returns the number of flags raised (attributed to `pid`).
    pub(crate) fn note_read(&mut self, arena: u64, addr: PAddr, pid: usize, step: u64) -> u64 {
        self.ensure_pid(pid);
        let mut flags = self.check_lost_read(arena, addr, pid, step);
        let ws = self.words.entry((arena, addr.0)).or_default();
        if let Some(sync) = &ws.sync {
            // Reading a synchronization word acquires its release clock; the
            // access itself is atomic and never races.
            join(&mut self.clocks[pid], sync);
            return flags;
        }
        if let Some(w) = &ws.last_write {
            if w.pid != pid && w.epoch > clk(&self.clocks[pid], w.pid) {
                self.flags += 1;
                flags += 1;
                push_report(
                    &mut self.reports,
                    format!(
                        "data race: pid {pid} read {addr:?} at step {step} is concurrent with \
                         pid {}'s write at step {} (no happens-before path)",
                        w.pid, w.step
                    ),
                );
            }
        }
        let epoch = self.clocks[pid][pid];
        if let Some(r) = ws.reads.iter_mut().find(|r| r.pid == pid) {
            r.epoch = epoch;
            r.step = step;
        } else {
            ws.reads.push(Access { pid, epoch, step });
        }
        flags
    }

    /// Plain or release (`release = true`) write. A plain write to a word that
    /// is already a synchronization word is treated as a release store too
    /// (documented mixed-atomic-site behaviour — e.g. re-initializing an
    /// announcement word): flagging it would indict every recovery-time store
    /// to a CAS word.
    pub(crate) fn note_write(
        &mut self,
        arena: u64,
        addr: PAddr,
        pid: usize,
        step: u64,
        release: bool,
    ) -> u64 {
        self.ensure_pid(pid);
        self.lost.remove(&(arena, addr.0));
        let mut flags = 0;
        let ws = self.words.entry((arena, addr.0)).or_default();
        if release || ws.sync.is_some() {
            let prev = ws.sync.take().unwrap_or_default();
            join(&mut self.clocks[pid], &prev);
            ws.sync = Some(self.clocks[pid].clone());
            self.clocks[pid][pid] += 1;
        } else {
            if let Some(w) = &ws.last_write {
                if w.pid != pid && w.epoch > clk(&self.clocks[pid], w.pid) {
                    self.flags += 1;
                    flags += 1;
                    push_report(
                        &mut self.reports,
                        format!(
                            "data race: pid {pid} write to {addr:?} at step {step} is concurrent \
                             with pid {}'s write at step {} (no happens-before path)",
                            w.pid, w.step
                        ),
                    );
                }
            }
            for r in &ws.reads {
                if r.pid != pid && r.epoch > clk(&self.clocks[pid], r.pid) {
                    self.flags += 1;
                    flags += 1;
                    push_report(
                        &mut self.reports,
                        format!(
                            "data race: pid {pid} write to {addr:?} at step {step} is concurrent \
                             with pid {}'s read at step {} (no happens-before path)",
                            r.pid, r.step
                        ),
                    );
                }
            }
            let epoch = self.clocks[pid][pid];
            ws.last_write = Some(Access { pid, epoch, step });
            ws.reads.clear();
        }
        self.mark_dirty(arena, addr.0, pid, step);
        if release {
            self.expose(arena, addr.0, pid, step, false);
        }
        flags
    }

    /// Successful CAS or fetch-add: acquire + release on the word's clock, and
    /// a publication point — every word this pid left dirty on another line,
    /// synchronization words included, may now be reachable before its persist
    /// is ordered. Being a locked RMW, it first drains the pid's pending
    /// flushes (Px86: lock prefix orders earlier `clflushopt`), so a word this
    /// pid flushed — even unfenced — is durably ordered before the
    /// publication, never exposed by it.
    pub(crate) fn note_sync_write(
        &mut self,
        arena: u64,
        addr: PAddr,
        pid: usize,
        step: u64,
    ) -> u64 {
        self.ensure_pid(pid);
        self.note_fence(pid);
        self.lost.remove(&(arena, addr.0));
        let ws = self.words.entry((arena, addr.0)).or_default();
        let prev = ws.sync.take().unwrap_or_default();
        join(&mut self.clocks[pid], &prev);
        ws.sync = Some(self.clocks[pid].clone());
        self.clocks[pid][pid] += 1;
        self.mark_dirty(arena, addr.0, pid, step);
        self.expose(arena, addr.0, pid, step, true);
        0
    }

    /// Failed CAS: acquire only (the word is marked as a synchronization word
    /// either way — the site evidently treats it as an atomic). A failed
    /// `lock cmpxchg` still executes locked on x86, so it drains the pid's
    /// pending flushes just like the successful case.
    pub(crate) fn note_sync_read(
        &mut self,
        arena: u64,
        addr: PAddr,
        pid: usize,
        _step: u64,
    ) -> u64 {
        self.ensure_pid(pid);
        self.note_fence(pid);
        let ws = self.words.entry((arena, addr.0)).or_default();
        let sync = ws.sync.get_or_insert_with(Vec::new);
        join(&mut self.clocks[pid], sync);
        0
    }

    /// Record exposures for a publication by `pid` via `publisher`: every word
    /// `pid` left dirty on another line of the arena, synchronization words
    /// only when the publication is a `locked` RMW (module docs).
    fn expose(&mut self, arena: u64, publisher: u64, pid: usize, publish_step: u64, locked: bool) {
        let Some(mut candidates) = self.unexposed.remove(&(arena, pid)) else {
            return;
        };
        let pub_line = line_base(publisher);
        let mut fresh: Vec<(u64, u64)> = Vec::new();
        candidates.retain(|&addr| {
            let step = match self.dirty(arena, addr) {
                Some(d) if d.pid == pid => d.step,
                // Promoted since, or rewritten by another pid (its candidate now).
                _ => return false,
            };
            if self.exposures.contains_key(&(arena, addr)) {
                return false;
            }
            // Same-line words are exempt: the line persists in order with the
            // publisher itself (the compact-frame argument). They stay
            // candidates for a publication on another line, as sync words do
            // for the next locked RMW.
            let sync = self
                .words
                .get(&(arena, addr))
                .is_some_and(|w| w.sync.is_some());
            if line_base(addr) == pub_line || (sync && !locked) {
                return true;
            }
            fresh.push((addr, step));
            false
        });
        if !candidates.is_empty() {
            self.unexposed.insert((arena, pid), candidates);
        }
        for (word, write_step) in fresh {
            self.published
                .entry((arena, publisher))
                .or_default()
                .push(word);
            self.exposures.insert(
                (arena, word),
                Exposure {
                    writer: pid,
                    write_step,
                    publisher,
                    publish_step,
                    durable: false,
                },
            );
        }
    }

    /// `flush` of a whole line by `pid`: the durable ordering is only
    /// established at `pid`'s next fence.
    pub(crate) fn note_flush(&mut self, arena: u64, line: PAddr, pid: usize) {
        if let Some(words) = self.lines.get_mut(&(arena, line.line_base().0)) {
            if self.flushed.len() <= pid {
                self.flushed.resize_with(pid + 1, HashSet::new);
            }
            let bit = 1u64 << (pid % 64);
            for d in words.iter_mut() {
                d.flushed_mask |= bit;
                self.flushed[pid].insert((arena, d.addr));
            }
        }
    }

    /// `fence` by `pid` (also invoked by the locked-RMW hooks, which order
    /// flushes the same way): every word some line of which `pid` flushed
    /// since the word was last written is now durably ordered — its exposures
    /// resolve, and exposures it published become crash-surviving.
    pub(crate) fn note_fence(&mut self, pid: usize) {
        let Some(flushed) = self.flushed.get_mut(pid) else {
            return;
        };
        let bit = 1u64 << (pid % 64);
        for (arena, word) in flushed.drain() {
            let line = (arena, line_base(word));
            let Some(words) = self.lines.get_mut(&line) else {
                continue;
            };
            // Rewritten since the flush: the new write is not ordered.
            let Some(i) = words
                .iter()
                .position(|d| d.addr == word && d.flushed_mask & bit != 0)
            else {
                continue;
            };
            words.remove(i);
            if words.is_empty() {
                self.lines.remove(&line);
            }
            self.exposures.remove(&(arena, word));
            for w in self.published.remove(&(arena, word)).unwrap_or_default() {
                if let Some(e) = self.exposures.get_mut(&(arena, w)) {
                    e.durable |= e.publisher == word;
                }
            }
        }
    }

    /// Full-system crash of `arena`: a global happens-before barrier (recovery
    /// is ordered after everything pre-crash), plus the cross-failure
    /// bookkeeping — exposures whose publisher may have persisted turn into
    /// `lost` words whose next plain read is flagged; exposures whose
    /// publisher certainly rolled back are dropped (the word is unreachable).
    pub(crate) fn note_system_crash(&mut self, arena: u64) {
        self.barrier();
        let (lines, lost) = (&self.lines, &mut self.lost);
        self.exposures.retain(|&(a, word), e| {
            if a != arena {
                return true;
            }
            let pub_flushed = lines
                .get(&(arena, line_base(e.publisher)))
                .is_some_and(|ws| {
                    ws.iter()
                        .any(|d| d.addr == e.publisher && d.flushed_mask != 0)
                });
            if e.durable || pub_flushed {
                lost.insert(
                    (arena, word),
                    format!(
                        "pid {} wrote it at step {} and published it via {:?} at step {} without \
                         flush+fence ordering the write before the crash",
                        e.writer,
                        e.write_step,
                        PAddr(e.publisher),
                        e.publish_step
                    ),
                );
            }
            false
        });
        self.forget_dirty(arena);
    }

    /// `persist_everything` on `arena`: all state durable, nothing dirty,
    /// nothing lost; also a global barrier (it is a quiescent harness call).
    pub(crate) fn note_persist_all(&mut self, arena: u64) {
        self.barrier();
        self.exposures.retain(|(a, _), _| *a != arena);
        self.lost.retain(|(a, _), _| *a != arena);
        self.forget_dirty(arena);
    }

    /// Drop every dirty word of `arena` and the indexes over them.
    fn forget_dirty(&mut self, arena: u64) {
        self.lines.retain(|(a, _), _| *a != arena);
        self.published.retain(|(a, _), _| *a != arena);
        self.unexposed.retain(|(a, _), _| *a != arena);
        for flushed in &mut self.flushed {
            flushed.retain(|(a, _)| *a != arena);
        }
    }

    /// Join every clock into every other and advance each pid past the join:
    /// pre-barrier accesses are ordered before all post-barrier accesses,
    /// while post-barrier accesses by different pids stay mutually unordered.
    fn barrier(&mut self) {
        let mut joined: Vec<u64> = Vec::new();
        for c in &self.clocks {
            join(&mut joined, c);
        }
        for (q, c) in self.clocks.iter_mut().enumerate() {
            if clk(c, q) != 0 {
                let own = clk(&joined, q);
                c.clear();
                c.extend_from_slice(&joined);
                if c.len() <= q {
                    c.resize(q + 1, 0);
                }
                c[q] = own + 1;
            }
        }
    }
}

/// The machine-level happens-before analyzer: one per [`PMem`](crate::PMem),
/// armed via `DF_HB=1` at machine construction or [`arm`](HbAnalyzer::arm).
///
/// All state sits behind one mutex which the armed instruction paths hold
/// around the actual memory access, so the analyzer observes the linearization
/// of the armed accesses exactly as it executed.
pub struct HbAnalyzer {
    armed: AtomicBool,
    inner: Mutex<HbInner>,
}

impl Default for HbAnalyzer {
    fn default() -> Self {
        HbAnalyzer::new()
    }
}

impl HbAnalyzer {
    /// A disarmed analyzer with empty state.
    pub fn new() -> HbAnalyzer {
        HbAnalyzer {
            armed: AtomicBool::new(false),
            inner: Mutex::new(HbInner::default()),
        }
    }

    /// Arm the analyzer. Thread handles mirror the armed state into their
    /// packed fast-flag byte at creation; call
    /// [`refresh_hb`](crate::PThread::refresh_hb) on handles that already
    /// exist.
    pub fn arm(&self) {
        // SeqCst: arming totally orders against the dispatch checks in every
        // thread handle so an armed run never mixes tracked and untracked
        // instructions from the same handle creation onwards.
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarm the analyzer (existing handles need
    /// [`refresh_hb`](crate::PThread::refresh_hb) to notice).
    pub fn disarm(&self) {
        // SeqCst: pairs with `arm` — one total order over the toggles.
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Whether the analyzer is armed.
    pub fn is_armed(&self) -> bool {
        // SeqCst: reads the same total order the arm/disarm stores write.
        self.armed.load(Ordering::SeqCst)
    }

    /// Total flags raised so far (data races + cross-failure races).
    pub fn flags(&self) -> u64 {
        self.inner.lock().flags
    }

    /// Drain the human-readable reports (capped at 32; the counter is not).
    pub fn take_reports(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.lock().reports)
    }

    pub(crate) fn locked(&self) -> MutexGuard<'_, HbInner> {
        self.inner.lock()
    }
}

impl std::fmt::Debug for HbAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HbAnalyzer")
            .field("armed", &self.is_armed())
            .field("flags", &self.flags())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: u64 = 1; // arena id used throughout

    fn addr(raw: u64) -> PAddr {
        PAddr(raw)
    }

    #[test]
    fn unsynchronized_write_read_is_a_race() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.on_thread(1);
        assert_eq!(hb.note_write(A, addr(64), 0, 1, false), 0);
        assert_eq!(hb.note_read(A, addr(64), 1, 1), 1, "{:?}", hb.reports);
        assert!(hb.reports[0].contains("data race"), "{:?}", hb.reports);
    }

    #[test]
    fn cas_handoff_orders_the_plain_word() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.on_thread(1);
        // pid 0: write data, release via CAS word; pid 1: acquire, read data.
        assert_eq!(hb.note_write(A, addr(64), 0, 1, false), 0);
        hb.note_sync_write(A, addr(128), 0, 2);
        assert_eq!(hb.note_read(A, addr(128), 1, 1), 0);
        assert_eq!(hb.note_read(A, addr(64), 1, 2), 0, "{:?}", hb.reports);
        assert_eq!(hb.flags, 0);
    }

    #[test]
    fn release_write_orders_like_a_cas() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.on_thread(1);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_write(A, addr(128), 0, 2, true); // write_release
        assert_eq!(hb.note_read(A, addr(128), 1, 1), 0);
        assert_eq!(hb.note_read(A, addr(64), 1, 2), 0, "{:?}", hb.reports);
    }

    #[test]
    fn read_then_concurrent_write_is_a_race() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.on_thread(1);
        assert_eq!(hb.note_read(A, addr(64), 0, 1), 0);
        assert_eq!(
            hb.note_write(A, addr(64), 1, 1, false),
            1,
            "{:?}",
            hb.reports
        );
    }

    #[test]
    fn handle_creation_edge_orders_setup_before_spawn() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        // pid 1 is created after the setup write: creation joins all clocks.
        hb.on_thread(1);
        assert_eq!(hb.note_read(A, addr(64), 1, 1), 0, "{:?}", hb.reports);
        // But pid 0's *later* writes stay unordered w.r.t. pid 1.
        hb.note_write(A, addr(72), 0, 2, false);
        assert_eq!(hb.note_read(A, addr(72), 1, 2), 1, "{:?}", hb.reports);
    }

    #[test]
    fn publish_of_unordered_word_is_lost_at_crash_and_flagged_on_read() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        // write the record, publish it, and durably order only the publisher.
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_sync_write(A, addr(128), 0, 2);
        hb.note_flush(A, addr(128), 0);
        hb.note_fence(0);
        assert_eq!(hb.exposures.len(), 1);
        assert!(hb.exposures.values().all(|e| e.durable));
        hb.note_system_crash(A);
        assert!(hb.lost.contains_key(&(A, 64)));
        assert_eq!(hb.note_read(A, addr(64), 0, 1), 1);
        assert!(hb.reports.last().unwrap().contains("cross-failure race"));
        // The flag is one-shot: the word is consumed from the lost set.
        assert_eq!(hb.note_read(A, addr(64), 0, 2), 0);
    }

    #[test]
    fn flush_fence_before_publish_leaves_nothing_exposed() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_flush(A, addr(64), 0);
        hb.note_fence(0);
        hb.note_sync_write(A, addr(128), 0, 2);
        assert!(hb.exposures.is_empty());
        hb.note_flush(A, addr(128), 0);
        hb.note_fence(0);
        hb.note_system_crash(A);
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 0, "{:?}", hb.reports);
    }

    #[test]
    fn flush_without_fence_before_release_store_publish_is_still_exposed() {
        // The bug class the eager-persist simulator cannot show: clflushopt
        // issued, no sfence, then publication by a *store* (a plain `mov`
        // orders nothing) — and the crash lands after the publisher's own
        // durable ordering.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_flush(A, addr(64), 0); // no fence
        hb.note_write(A, addr(128), 0, 2, true); // write_release publishes
        assert_eq!(
            hb.exposures.len(),
            1,
            "unfenced flush must not resolve the exposure"
        );
        // The publisher is possibly durable...
        hb.note_flush(A, addr(128), 0);
        // ...and the crash lands before the eventual fence (which would have
        // drained the record's flush as well and closed the window).
        hb.note_system_crash(A);
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 1, "{:?}", hb.reports);
    }

    #[test]
    fn a_locked_cas_orders_pending_flushes_like_a_fence() {
        // Px86: `flush(line); cas(...)` with no fence is the paper's §9
        // elision — the lock prefix drains the flushopt, so the flushed word
        // is durably ordered before the publication.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_flush(A, addr(64), 0); // no fence...
        hb.note_sync_write(A, addr(128), 0, 2); // ...the CAS orders it
        assert!(
            hb.exposures.is_empty(),
            "flush + CAS must resolve the dirty word"
        );
        hb.note_flush(A, addr(128), 0);
        hb.note_system_crash(A);
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 0, "{:?}", hb.reports);
    }

    #[test]
    fn a_failed_cas_also_orders_pending_flushes() {
        // `lock cmpxchg` executes locked whether or not the compare succeeds.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_flush(A, addr(64), 0);
        // A failed CAS on another word...
        hb.note_sync_read(A, addr(128), 0, 2);
        // ...so a later release-store publication finds the word already ordered.
        hb.note_write(A, addr(192), 0, 3, true);
        assert!(hb.exposures.is_empty(), "the failed CAS drained the flush");
    }

    #[test]
    fn an_unflushed_word_is_still_exposed_by_a_cas_publication() {
        // The locked-RMW rule only orders *issued* flushes: publishing a word
        // that was never flushed at all remains mutant 1's bug.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false); // never flushed
        hb.note_sync_write(A, addr(128), 0, 2);
        assert_eq!(hb.exposures.len(), 1);
        hb.note_flush(A, addr(128), 0);
        hb.note_fence(0);
        hb.note_system_crash(A);
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 1, "{:?}", hb.reports);
    }

    #[test]
    fn unflushed_publisher_rolls_back_and_drops_the_exposure() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_sync_write(A, addr(128), 0, 2);
        assert_eq!(hb.exposures.len(), 1);
        // Crash before anything is flushed: the publication itself is gone.
        hb.note_system_crash(A);
        assert!(hb.lost.is_empty());
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 0, "{:?}", hb.reports);
    }

    #[test]
    fn same_line_publication_is_exempt() {
        // Compact-frame shape: user words and the control word share a line,
        // which persists atomically and in order.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_write(A, addr(65), 0, 2, true); // release on the same line
        assert!(hb.exposures.is_empty());
    }

    #[test]
    fn a_cas_on_another_line_exposes_an_unordered_sync_word() {
        // The announcement shape: a release-stored sync word, never flushed,
        // then a CAS elsewhere publishes past it. Recovery reads the word as
        // its evidence, so losing it while the CAS survives is flagged.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, true);
        hb.note_sync_write(A, addr(128), 0, 2);
        assert_eq!(hb.exposures.len(), 1);
        hb.note_flush(A, addr(128), 0);
        hb.note_fence(0);
        hb.note_system_crash(A);
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 1, "{:?}", hb.reports);
        assert!(
            hb.reports[0].contains("cross-failure race"),
            "{:?}",
            hb.reports
        );
    }

    #[test]
    fn a_release_store_does_not_expose_a_sync_word() {
        // A release store is a plain `mov`: the sync word it leaves behind
        // is not exposed by it, but stays a candidate for the next locked RMW.
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_sync_write(A, addr(64), 0, 1); // never flushed
        hb.note_write(A, addr(128), 0, 2, true);
        assert!(hb.exposures.is_empty());
        hb.note_flush(A, addr(128), 0);
        hb.note_fence(0);
        hb.note_sync_write(A, addr(192), 0, 3);
        assert_eq!(hb.exposures.keys().collect::<Vec<_>>(), [&(A, 64)]);
    }

    #[test]
    fn crash_is_a_global_barrier() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.on_thread(1);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_system_crash(A);
        // Post-crash recovery by the other pid reads the word: ordered.
        assert_eq!(hb.note_read(A, addr(64), 1, 1), 0, "{:?}", hb.reports);
        // Post-crash accesses by different pids are still unordered.
        hb.note_write(A, addr(72), 0, 2, false);
        assert_eq!(hb.note_read(A, addr(72), 1, 2), 1, "{:?}", hb.reports);
    }

    #[test]
    fn persist_all_clears_arena_state() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_sync_write(A, addr(128), 0, 2);
        hb.note_persist_all(A);
        assert!(hb.lines.is_empty());
        assert!(hb.exposures.is_empty());
        hb.note_system_crash(A);
        assert_eq!(hb.note_read(A, addr(64), 0, 3), 0, "{:?}", hb.reports);
    }

    #[test]
    fn state_is_keyed_by_arena() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.note_write(A, addr(64), 0, 1, false);
        hb.note_sync_write(A, addr(128), 0, 2);
        hb.note_flush(A, addr(128), 0);
        hb.note_fence(0);
        // A crash of a *different* arena must not consume arena A's state.
        hb.note_system_crash(A + 1);
        assert!(hb.lost.is_empty());
        assert_eq!(hb.exposures.len(), 1);
        hb.note_system_crash(A);
        assert!(hb.lost.contains_key(&(A, 64)));
    }

    #[test]
    fn report_cap_does_not_stop_the_counter() {
        let mut hb = HbInner::default();
        hb.on_thread(0);
        hb.on_thread(1);
        for i in 0..(MAX_REPORTS as u64 + 8) {
            hb.note_write(A, addr(64 + i), 0, i, false);
            hb.note_read(A, addr(64 + i), 1, i);
        }
        assert_eq!(hb.reports.len(), MAX_REPORTS);
        assert_eq!(hb.flags, MAX_REPORTS as u64 + 8);
    }
}
