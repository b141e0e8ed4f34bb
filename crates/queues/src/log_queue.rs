//! The LogQueue: a hand-tuned durable and *detectable* Michael–Scott queue in the
//! style of Friedman, Herlihy, Marathe and Petrank (PPoPP 2018) — the specialised
//! competitor of Figure 6.
//!
//! The queue itself is the plain MSQ with hand-placed flushes (flush the new node
//! before publishing it, flush the `next` pointer after linking, flush head/tail
//! after swinging them — the paper's variant flushes both for faster recovery and
//! drops the return-value array). Detectability comes from a per-thread *operation
//! log*: before an operation starts, the thread persists a log entry describing it;
//! after it completes, the entry is marked done together with the result. After a
//! crash, [`LogQueue::recover`] inspects the log and, if the interrupted operation
//! is not marked done, determines whether it nevertheless took effect by traversing
//! the queue — which is why LogQueue recovery is O(queue length) while the
//! capsule-based transformations recover in constant time (the comparison in the
//! supplementary recovery-delay table). A [`LogQueueHandle`] runs that recovery
//! itself: like a capsule handle, it absorbs every crash inside the operation and
//! returns the operation's exact result.

use capsules::CapsuleMetrics;
use pmem::{catch_crash, PAddr, PThread, LINE_WORDS};

use crate::api::{fifo_struct_handle, QueueHandle};
use crate::node::{alloc_node, dequeuer_addr, next_addr, value_addr};

// Per-thread log entry layout (one cache line per thread).
const LOG_SEQ: u64 = 0; // operation sequence number
const LOG_KIND: u64 = 1; // 0 = none, 1 = enqueue, 2 = dequeue
const LOG_NODE: u64 = 2; // enqueue: the node being inserted
const LOG_DONE: u64 = 3; // 1 once the operation completed
const LOG_RESULT: u64 = 4; // dequeue: encoded result (Option<u64> as (v<<1)|1, 0 = None)

/// The value a dequeuer CASes into a claimed node's `dequeuer` word: the claiming
/// operation's sequence number in the high bits, `pid + 1` in the low 16. Non-zero
/// by construction (so "unclaimed" stays the all-zero word), and unique per
/// (thread, operation) so recovery never mistakes an earlier operation's claim for
/// the interrupted one.
fn claim_tag(pid: usize, seq: u64) -> u64 {
    debug_assert!(pid < (1 << 16) - 1);
    (seq << 16) | (pid as u64 + 1)
}

/// What the recovery procedure concluded about a thread's interrupted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveredOp {
    /// No operation was in flight (or it had already been marked done).
    None,
    /// The interrupted enqueue did take effect (its node is reachable).
    EnqueueApplied,
    /// The interrupted enqueue did not take effect; it is safe to re-run it.
    EnqueueNotApplied,
    /// The interrupted dequeue took effect and returned this value.
    DequeueApplied(u64),
    /// The interrupted dequeue did not take effect.
    DequeueNotApplied,
}

/// The shared, persistent part of the LogQueue.
#[derive(Clone, Copy, Debug)]
pub struct LogQueue {
    head: PAddr,
    tail: PAddr,
    log_base: PAddr,
    nprocs: usize,
}

impl LogQueue {
    /// Create an empty queue with a per-thread operation log for `nprocs` threads.
    pub fn new(thread: &PThread<'_>, nprocs: usize) -> LogQueue {
        let sentinel = alloc_node(thread, 0);
        let head = thread.alloc(1);
        let tail = thread.alloc(1);
        thread.write(head, sentinel.to_raw());
        thread.write(tail, sentinel.to_raw());
        // Line-aligned so each pid's five-word entry sits inside one cache
        // line: `log_begin`/`log_finish` rely on "one line, one flush" for the
        // entry to be torn-free under full-system crashes. A plain `alloc` of
        // more than one line may start mid-line, splitting every entry across
        // two lines (sequence number durable, kind/done rolled back — exactly
        // the torn state the driver protocol assumes impossible).
        let log_base = thread.alloc_aligned(nprocs as u64 * LINE_WORDS);
        thread.persist(sentinel);
        thread.persist(head);
        thread.persist(tail);
        LogQueue {
            head,
            tail,
            log_base,
            nprocs,
        }
    }

    fn log_addr(&self, pid: usize, field: u64) -> PAddr {
        assert!(pid < self.nprocs);
        self.log_base.offset(pid as u64 * LINE_WORDS + field)
    }

    /// Create the calling thread's handle.
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> LogQueueHandle<'q, 't, 'm> {
        LogQueueHandle {
            queue: self,
            thread,
            metrics: CapsuleMetrics::default(),
        }
    }

    /// Count elements reachable from the head (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        let mut count = 0;
        let mut node = PAddr::from_raw(thread.read(self.head));
        loop {
            let next = PAddr::from_raw(thread.read(next_addr(node)));
            if next.is_null() {
                break;
            }
            count += 1;
            node = next;
        }
        count
    }

    /// Whether the queue is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self, thread: &PThread<'_>) -> bool {
        self.len(thread) == 0
    }

    /// The operation sequence number currently recorded in `thread`'s log
    /// entry (the protocol of [`LogQueueHandle`] reads it around a crash).
    fn logged_seq(&self, thread: &PThread<'_>) -> u64 {
        thread.read(self.log_addr(thread.pid(), LOG_SEQ))
    }

    /// The completed-operation result recorded in `thread`'s log entry (only
    /// meaningful for a dequeue whose log entry is marked done): `None` for an
    /// empty-queue dequeue, `Some(v)` for a dequeue that returned `v`.
    fn logged_result(&self, thread: &PThread<'_>) -> Option<u64> {
        let word = thread.read(self.log_addr(thread.pid(), LOG_RESULT));
        if word & 1 == 0 {
            None
        } else {
            Some(word >> 1)
        }
    }

    /// Post-crash recovery for one thread: decide whether its logged, unfinished
    /// operation took effect. For an enqueue this requires traversing the queue to
    /// look for the logged node, so the cost grows with the queue length.
    pub fn recover(&self, thread: &PThread<'_>) -> RecoveredOp {
        thread.begin_recovery();
        let pid = thread.pid();
        let kind = thread.read(self.log_addr(pid, LOG_KIND));
        let done = thread.read(self.log_addr(pid, LOG_DONE));
        let outcome = if kind == 0 || done == 1 {
            RecoveredOp::None
        } else if kind == 1 {
            // Enqueue: applied iff the logged node is reachable from the head (or is
            // the tail). Walk the whole queue.
            let node = PAddr::from_raw(thread.read(self.log_addr(pid, LOG_NODE)));
            let mut cur = PAddr::from_raw(thread.read(self.head));
            let mut found = false;
            loop {
                if cur == node {
                    found = true;
                    break;
                }
                let next = PAddr::from_raw(thread.read(next_addr(cur)));
                if next.is_null() {
                    break;
                }
                cur = next;
            }
            if found {
                RecoveredOp::EnqueueApplied
            } else {
                RecoveredOp::EnqueueNotApplied
            }
        } else {
            // Dequeue: applied iff the node this operation logged as its claim
            // candidate carries *this operation's* claim tag. The tag encodes the
            // operation sequence number as well as the pid (Friedman et al.'s
            // deqThreadID trick): a bare pid marker would make a node claimed by
            // one of this thread's *earlier*, already-completed dequeues look
            // like a successful claim of the interrupted one, double-returning
            // its value. The candidate is logged *before* the claim CAS, so the
            // log always names the node whose dequeuer word is the verdict.
            let node = PAddr::from_raw(thread.read(self.log_addr(pid, LOG_NODE)));
            let seq = thread.read(self.log_addr(pid, LOG_SEQ));
            if !node.is_null() && thread.read(dequeuer_addr(node)) == claim_tag(pid, seq) {
                RecoveredOp::DequeueApplied(thread.read(value_addr(node)))
            } else {
                RecoveredOp::DequeueNotApplied
            }
        };
        thread.end_recovery();
        outcome
    }
}

/// A LogQueue operation, as the handle's recovery protocol re-runs it.
#[derive(Clone, Copy)]
enum LogOp {
    Enqueue(u64),
    Dequeue,
}

/// Per-thread handle for the LogQueue. Every operation runs the queue's
/// detectable-recovery protocol and absorbs crashes, nested ones included, as
/// a capsule handle does: read the logged sequence number before the
/// operation; on a crash apply it ([`PThread::apply_crash`]) and run
/// [`LogQueue::recover`], restarted through further crashes (it only reads).
/// An unchanged sequence number means `log_begin` never completed and the
/// queue is untouched: re-run the operation. Otherwise the record is fully
/// this operation's, so answer from the verdict or from a done dequeue's
/// logged result, or re-run an operation that did not take effect.
/// `recoveries` and `recovery_crashes` are counted in the [`CapsuleMetrics`]
/// of [`capsule_metrics`](delayfree::StructHandle::capsule_metrics).
#[derive(Debug)]
pub struct LogQueueHandle<'q, 't, 'm> {
    queue: &'q LogQueue,
    thread: &'t PThread<'m>,
    metrics: CapsuleMetrics,
}

/// Run the read-only protocol step `f` until it completes without a crash
/// (it never writes, so restarting it is safe), applying every crash and
/// counting it with `count`.
fn retry_read<R>(
    t: &PThread<'_>,
    metrics: &mut CapsuleMetrics,
    count: fn(&mut CapsuleMetrics),
    f: impl Fn() -> R,
) -> R {
    loop {
        match catch_crash(&f) {
            Ok(v) => return v,
            Err(_) => {
                t.apply_crash();
                count(metrics);
            }
        }
    }
}

impl LogQueueHandle<'_, '_, '_> {
    /// Run `op` through the recovery protocol (see [`LogQueueHandle`]) until
    /// its exact result is known.
    fn run(&mut self, op: LogOp) -> Option<u64> {
        let (q, t) = (self.queue, self.thread);
        // Restarting the read before the operation is itself a recovery
        // action; a crash inside a recovery step is a recovery crash.
        let restart: fn(&mut CapsuleMetrics) = |m| m.recoveries += 1;
        let in_recovery: fn(&mut CapsuleMetrics) = |m| m.recovery_crashes += 1;
        loop {
            let seq_before = retry_read(t, &mut self.metrics, restart, || q.logged_seq(t));
            let attempt = catch_crash(|| match op {
                LogOp::Enqueue(v) => {
                    self.enqueue_once(v);
                    None
                }
                LogOp::Dequeue => self.dequeue_once(),
            });
            match attempt {
                Ok(ret) => return ret,
                Err(_) => t.apply_crash(),
            }
            let verdict = retry_read(t, &mut self.metrics, in_recovery, || q.recover(t));
            self.metrics.recoveries += 1;
            let both: fn(&mut CapsuleMetrics) = |m| {
                m.recoveries += 1;
                m.recovery_crashes += 1;
            };
            if retry_read(t, &mut self.metrics, both, || q.logged_seq(t)) == seq_before {
                continue;
            }
            match verdict {
                // The log entry is marked done: the operation completed
                // before the crash.
                RecoveredOp::None => {
                    return match op {
                        LogOp::Enqueue(_) => None,
                        LogOp::Dequeue => {
                            retry_read(t, &mut self.metrics, in_recovery, || q.logged_result(t))
                        }
                    }
                }
                RecoveredOp::EnqueueApplied => return None,
                RecoveredOp::DequeueApplied(v) => return Some(v),
                RecoveredOp::EnqueueNotApplied | RecoveredOp::DequeueNotApplied => {}
            }
        }
    }

    /// Persist the operation's log record; returns the operation's sequence
    /// number (so callers need not re-read it).
    fn log_begin(&self, kind: u64, node: PAddr) -> u64 {
        let t = self.thread;
        let q = self.queue;
        let pid = t.pid();
        let seq = t.read(q.log_addr(pid, LOG_SEQ)) + 1;
        // The sequence number is written *last*: a crash anywhere inside this
        // function may leave the other fields torn (mixing this record with the
        // previous operation's), but then the old sequence number is still in
        // place, and "seq unchanged ⇒ the operation never began" is the invariant
        // the handle's recovery protocol relies on (see [`LogQueueHandle`]).
        // Once the sequence number has advanced, every other field belongs fully
        // to this operation and [`LogQueue::recover`]'s verdict is reliable.
        t.write(q.log_addr(pid, LOG_KIND), kind);
        t.write(q.log_addr(pid, LOG_NODE), node.to_raw());
        t.write(q.log_addr(pid, LOG_DONE), 0);
        t.write(q.log_addr(pid, LOG_SEQ), seq);
        // One line, one flush, one fence.
        t.persist(q.log_addr(pid, 0));
        seq
    }

    fn log_finish(&self, result: u64) {
        let t = self.thread;
        let q = self.queue;
        let pid = t.pid();
        t.write(q.log_addr(pid, LOG_RESULT), result);
        t.write(q.log_addr(pid, LOG_DONE), 1);
        t.persist(q.log_addr(pid, 0));
    }

    /// One enqueue attempt, unprotected: a crash unwinds out of it.
    fn enqueue_once(&self, value: u64) {
        let t = self.thread;
        let q = self.queue;
        let node = alloc_node(t, value);
        t.persist(node);
        self.log_begin(1, node);
        loop {
            let last = PAddr::from_raw(t.read(q.tail));
            let next = PAddr::from_raw(t.read(next_addr(last)));
            if last.to_raw() != t.read(q.tail) {
                continue;
            }
            if next.is_null() {
                if t.cas(next_addr(last), 0, node.to_raw()) {
                    t.persist(next_addr(last));
                    let _ = t.cas(q.tail, last.to_raw(), node.to_raw());
                    t.flush(q.tail);
                    break;
                }
            } else {
                t.persist(next_addr(last));
                let _ = t.cas(q.tail, last.to_raw(), next.to_raw());
                t.flush(q.tail);
            }
        }
        self.log_finish(0);
    }

    /// One dequeue attempt, unprotected: a crash unwinds out of it.
    fn dequeue_once(&self) -> Option<u64> {
        let t = self.thread;
        let q = self.queue;
        let seq = self.log_begin(2, PAddr::NULL);
        let tag = claim_tag(t.pid(), seq);
        let result = loop {
            let first = PAddr::from_raw(t.read(q.head));
            let last = PAddr::from_raw(t.read(q.tail));
            let next = PAddr::from_raw(t.read(next_addr(first)));
            if first.to_raw() != t.read(q.head) {
                continue;
            }
            if first == last {
                if next.is_null() {
                    break None;
                }
                t.persist(next_addr(last));
                let _ = t.cas(q.tail, last.to_raw(), next.to_raw());
                t.flush(q.tail);
            } else {
                let value = t.read(value_addr(next));
                // Log which node this operation is about to claim *before* the
                // claim CAS. Logging after a successful claim leaves a window in
                // which the claim is in the queue but the log does not name it:
                // a crash there makes recovery report not-applied, the re-run
                // then skips (helps past) the claimed node, and its value is
                // lost. The exhaustive dfck sweep catches exactly this window.
                t.write(q.log_addr(t.pid(), LOG_NODE), next.to_raw());
                t.flush(q.log_addr(t.pid(), 0));
                // Claim the node for detectability, then swing the head.
                if t.cas(dequeuer_addr(next), 0, tag) {
                    t.persist(dequeuer_addr(next));
                    let _ = t.cas(q.head, first.to_raw(), next.to_raw());
                    t.persist(q.head);
                    break Some(value);
                } else {
                    // Someone else claimed it; help swing the head and retry.
                    let _ = t.cas(q.head, first.to_raw(), next.to_raw());
                }
            }
        };
        self.log_finish(result.map_or(0, |v| (v << 1) | 1));
        result
    }
}

impl QueueHandle for LogQueueHandle<'_, '_, '_> {
    fn enqueue(&mut self, value: u64) {
        self.run(LogOp::Enqueue(value));
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.run(LogOp::Dequeue)
    }
}

fifo_struct_handle!(
    LogQueueHandle,
    fn capsule_metrics(&mut self) -> Option<CapsuleMetrics> {
        Some(self.metrics)
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem};
    use std::collections::HashSet;

    #[test]
    fn fifo_order_single_thread() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let q = LogQueue::new(&t, 1);
        let mut h = q.handle(&t);
        assert_eq!(h.dequeue(), None);
        for i in 1..=100 {
            h.enqueue(i);
        }
        for i in 1..=100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let mem = PMem::with_threads(THREADS);
        let q = LogQueue::new(&mem.thread(0), THREADS);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let q = &q;
                    s.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = q.handle(&t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.enqueue((pid as u64) << 32 | i);
                            if let Some(v) = h.dequeue() {
                                popped.push(v);
                            }
                        }
                        popped
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn contents_survive_full_system_crash() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let q = LogQueue::new(&t, 1);
        {
            let mut h = q.handle(&t);
            for i in 1..=25 {
                h.enqueue(i);
            }
            for _ in 0..5 {
                let _ = h.dequeue();
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        for i in 6..=25 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn recovery_detects_completed_and_missing_operations() {
        let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let q = LogQueue::new(&t, 2);
        let mut h = q.handle(&t);
        h.enqueue(1);
        // A completed operation (log marked done) recovers as None.
        assert_eq!(q.recover(&t), RecoveredOp::None);
        // Simulate an interrupted enqueue: log it, link the node, but crash before
        // marking the log done.
        let node = alloc_node(&t, 99);
        t.persist(node);
        h.log_begin(1, node);
        let last = PAddr::from_raw(t.read(q.tail));
        assert!(t.cas(next_addr(last), 0, node.to_raw()));
        t.persist(next_addr(last));
        mem.crash_all();
        let t = mem.thread(0);
        assert_eq!(q.recover(&t), RecoveredOp::EnqueueApplied);
        // And an interrupted enqueue whose node never got linked recovers as
        // not-applied.
        let h = q.handle(&t);
        let unlinked = alloc_node(&t, 100);
        t.persist(unlinked);
        h.log_begin(1, unlinked);
        mem.crash_all();
        let t = mem.thread(0);
        assert_eq!(q.recover(&t), RecoveredOp::EnqueueNotApplied);
    }

    /// The handle absorbs a crash at any point of an enqueue + dequeue, under
    /// either crash flavour of the machine: both operations answer exactly
    /// once and every crash is met by a recovery.
    #[test]
    fn the_handle_absorbs_a_crash_at_every_point_exactly_once() {
        use delayfree::StructHandle;
        use pmem::{install_quiet_crash_hook, CrashPlan};
        install_quiet_crash_hook();
        for system in [false, true] {
            for k in 0.. {
                let config = MemConfig::new(1).mode(Mode::SharedCache);
                let mem = PMem::new(config.system_crashes(system));
                let t = mem.thread(0);
                let q = LogQueue::new(&t, 1);
                let mut h = q.handle(&t);
                h.enqueue(1);
                h.enqueue(2);
                mem.persist_everything();
                t.set_crash_schedule(CrashPlan::once(k));
                h.enqueue(3);
                let got = h.dequeue();
                t.disarm_crashes();
                let crashes = t.stats().crashes;
                let label = format!("system={system} k={k}");
                assert_eq!((got, h.drain()), (Some(1), vec![2, 3]), "{label}");
                let m = h.capsule_metrics().expect("the handle counts its recoveries");
                assert!(m.recoveries >= crashes, "{label}: {m:?}");
                if crashes == 0 {
                    assert!(k > 0, "no crash point");
                    break;
                }
            }
        }
    }

    #[test]
    fn recovery_cost_grows_with_queue_length() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let q = LogQueue::new(&t, 1);
        let mut h = q.handle(&t);
        let measure = |n: u64, h: &mut LogQueueHandle, t: &PThread| {
            for i in 0..n {
                h.enqueue(i);
            }
            // Pretend an enqueue of an unlinked node was interrupted.
            let node = alloc_node(t, 12345);
            h.log_begin(1, node);
            let before = t.stats().recovery_steps;
            let _ = q.recover(t);
            let steps = t.stats().recovery_steps - before;
            h.log_finish(0);
            steps
        };
        let short = measure(10, &mut h, &t);
        let long = measure(1_000, &mut h, &t);
        assert!(
            long > short * 10,
            "LogQueue recovery must scale with queue length ({short} vs {long})"
        );
    }
}
