//! Common queue interface, durability configuration and the capsule-handle
//! scaffold the two transformed queues share.

use capsules::{BoundaryStyle, CapsuleRuntime, ContentionMeasure};
use pmem::PThread;

/// How a queue achieves durability in the shared-cache model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Durability {
    /// No flushes issued by the queue itself. Correct in the private-cache model,
    /// or when the thread options apply the Izraelevitz construction (flush after
    /// every shared access), or when durability is simply not required (the plain
    /// MSQ baseline of Figure 7).
    None,
    /// Hand-placed flushes à la Friedman et al.'s durable queue — the configuration
    /// compared in Figure 6.
    Manual,
}

impl Durability {
    /// Whether the queue should issue explicit flushes.
    pub fn manual(self) -> bool {
        matches!(self, Durability::Manual)
    }
}

/// The uniform face every queue variant presents to the benchmark harness, the
/// examples and the integration tests.
///
/// A handle is per-thread (it owns the thread's capsule runtime / operation log) and
/// must only be used by the thread that created it.
pub trait QueueHandle {
    /// Append `value` to the tail of the queue.
    fn enqueue(&mut self, value: u64);
    /// Remove and return the value at the head of the queue, or `None` if empty.
    fn dequeue(&mut self) -> Option<u64>;

    /// Dequeue until the queue is empty, returning the values in FIFO order.
    ///
    /// This is the uniform history hook the exhaustive crash-point sweeper
    /// (`dfck` in the `bench` crate) uses to read off the final queue state of
    /// every variant after a crash-and-recovery replay: the drained sequence plus
    /// the per-operation return values form the history its exactly-once /
    /// durable-linearizability oracle checks. Quiescent use only — like `dequeue`
    /// it is per-thread and the result is only meaningful once concurrent
    /// operations have stopped.
    fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(v) = self.dequeue() {
            out.push(v);
        }
        out
    }

    /// [`drain`](QueueHandle::drain), but stop after at most `max` dequeues even
    /// if the queue still reports elements.
    ///
    /// An unbounded drain trusts the queue's next-pointer chain to be acyclic; a
    /// recovery bug that splices a node behind itself would make [`drain`]
    /// (and therefore a whole `dfck` sweep) spin forever instead of failing.
    /// Oracles that know an upper bound on the surviving elements (prefill plus
    /// every enqueue the replay could have applied) call this with `bound + 1`:
    /// a result longer than `bound` is machine-checkable proof of a corrupted
    /// chain and is reported as an oracle violation, never as a hang.
    fn drain_up_to(&mut self, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        while out.len() < max {
            match self.dequeue() {
                Some(v) => out.push(v),
                None => break,
            }
        }
        out
    }
}

/// What the handle scaffold needs to know about a capsule-transformed queue
/// (all of it lives in the queue's simulator).
pub trait Capsuled {
    /// User locals a handle's capsule runtime persists.
    const LOCALS: usize;
    /// Frame layout of the handles.
    fn style(&self) -> BoundaryStyle;
    /// Contention policy every handle starts with.
    fn contention(&self) -> ContentionMeasure;
}

/// Per-thread handle of a capsule-transformed queue: the thread's capsule
/// runtime plus a reference to the shared part. [`GeneralQueueHandle`] and
/// [`NormalizedQueueHandle`] are this type.
///
/// [`GeneralQueueHandle`]: crate::GeneralQueueHandle
/// [`NormalizedQueueHandle`]: crate::NormalizedQueueHandle
pub struct Handle<'q, 't, 'm, Q> {
    pub(crate) queue: &'q Q,
    pub(crate) rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm, Q: Capsuled> Handle<'q, 't, 'm, Q> {
    fn over(queue: &'q Q, mut rt: CapsuleRuntime<'t, 'm>) -> Self {
        rt.set_contention(queue.contention());
        Handle { queue, rt }
    }

    /// A handle over a freshly allocated capsule frame.
    pub(crate) fn new(queue: &'q Q, thread: &'t PThread<'m>) -> Self {
        Self::over(queue, CapsuleRuntime::new(thread, queue.style(), Q::LOCALS))
    }

    /// A handle resuming from the process's restart pointer (the frame it
    /// published before the crash). Recovery is constant work: reload the
    /// frame, and the first capsule re-executed consults the recoverable CAS.
    pub(crate) fn attach(queue: &'q Q, thread: &'t PThread<'m>) -> Self {
        let rt = CapsuleRuntime::attach_from_restart_pointer(thread, queue.style(), Q::LOCALS);
        Self::over(queue, rt)
    }

    /// Access the underlying capsule runtime (metrics, entry-boundary policy…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// Mirror of [`CapsuleRuntime::set_entry_boundary`]: the paper's measurements
    /// omit the per-operation entry boundary because it is identical for every
    /// variant under test (§10).
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }
}

/// Give a capsule-transformed queue its handle type and the two inherent
/// constructors every caller uses.
macro_rules! capsule_handles {
    ($queue:ident, $handle:ident) => {
        #[doc = concat!("Per-thread handle of a [`", stringify!($queue), "`].")]
        pub type $handle<'q, 't, 'm> = $crate::api::Handle<'q, 't, 'm, $queue>;

        impl $queue {
            /// Create the calling thread's handle (allocating its capsule frame).
            pub fn handle<'q, 't, 'm>(
                &'q self,
                thread: &'t pmem::PThread<'m>,
            ) -> $handle<'q, 't, 'm> {
                $crate::api::Handle::new(self, thread)
            }

            /// Re-attach a handle after a restart, resuming from the process's
            /// restart pointer.
            pub fn attach_handle<'q, 't, 'm>(
                &'q self,
                thread: &'t pmem::PThread<'m>,
            ) -> $handle<'q, 't, 'm> {
                $crate::api::Handle::attach(self, thread)
            }
        }
    };
}
pub(crate) use capsule_handles;

/// One body per suite the two capsule-transformed queues share (single-thread
/// FIFO semantics in both styles, concurrent exactness, random crashes on one
/// and on several threads, full-system-crash durability), generic over the
/// queue; the queues' test modules call these with a constructor.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPolicy, MemConfig, Mode, PMem};
    use std::collections::HashSet;

    /// FIFO semantics on one thread, for both values of the style flag.
    pub(crate) fn fifo_single_thread<Q: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> Q,
        len: fn(&Q, &PThread<'_>) -> usize,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        for flag in [false, true] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let q = build(&t, flag);
            let mut h = Handle::new(&q, &t);
            assert_eq!(h.dequeue(), None);
            for i in 1..=200 {
                h.enqueue(i);
            }
            assert_eq!(len(&q, &t), 200);
            for i in 1..=200 {
                assert_eq!(h.dequeue(), Some(i), "style flag {flag}");
            }
            assert_eq!(h.dequeue(), None);
        }
    }

    /// Four threads enqueue and dequeue concurrently: nothing lost, nothing
    /// doubled.
    pub(crate) fn concurrent_exactness<Q: Capsuled + Sync>(build: impl Fn(&PThread<'_>, usize) -> Q)
    where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let mem = PMem::with_threads(THREADS);
        let q = build(&mem.thread(0), THREADS);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let (mem, q) = (&mem, &q);
                    s.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = Handle::new(q, &t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.enqueue((pid as u64) << 32 | i);
                            popped.extend(h.dequeue());
                        }
                        popped
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        all.extend(Handle::new(&q, &t).drain());
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    /// 300 enqueues then a full drain under random crash injection, for each
    /// listed style flag: exactly-once, in FIFO order.
    pub(crate) fn random_crashes<Q: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> Q,
        flags: &[bool],
        seed: u64,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        install_quiet_crash_hook();
        for &flag in flags {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let q = build(&t, flag);
            let mut h = Handle::new(&q, &t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed });
            for i in 1..=300u64 {
                h.enqueue(i);
            }
            let out = h.drain();
            t.disarm_crashes();
            let expect: Vec<u64> = (1..=300).collect();
            assert_eq!(out, expect, "exactly-once despite crashes (style flag {flag})");
            assert!(t.stats().crashes > 0, "the policy should have fired at least once");
        }
    }

    /// Three threads enqueue under independent random crash injection: every
    /// element is present exactly once afterwards.
    pub(crate) fn concurrent_random_crashes<Q: Capsuled + Sync>(
        build: impl Fn(&PThread<'_>, usize) -> Q,
        per_thread: u64,
        seed: u64,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        install_quiet_crash_hook();
        const THREADS: usize = 3;
        let mem = PMem::with_threads(THREADS);
        let q = build(&mem.thread(0), THREADS);
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let (mem, q) = (&mem, &q);
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let mut h = Handle::new(q, &t);
                    t.set_crash_policy(CrashPolicy::Random {
                        prob: 0.005,
                        seed: seed + pid as u64,
                    });
                    for i in 0..per_thread {
                        h.enqueue((pid as u64) << 32 | i);
                    }
                    t.disarm_crashes();
                });
            }
        });
        let t = mem.thread(0);
        let mut h = Handle::new(&q, &t);
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v), "value {v:#x} dequeued twice");
        }
        assert_eq!(seen.len(), THREADS * per_thread as usize);
    }

    /// Durable linearizability: 20 completed enqueues, a full-system crash, and
    /// all 20 are dequeued in order by a fresh handle.
    pub(crate) fn survives_full_system_crash<Q: Capsuled>(build: impl Fn(&PThread<'_>) -> Q)
    where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let q = build(&mem.thread(0));
        {
            let t = mem.thread(0);
            let mut h = Handle::new(&q, &t);
            for i in 1..=20 {
                h.enqueue(i);
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = Handle::new(&q, &t);
        for i in 1..=20 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_flags() {
        assert!(!Durability::None.manual());
        assert!(Durability::Manual.manual());
    }

    #[test]
    fn drain_default_impl_empties_in_fifo_order() {
        struct VecQueue(std::collections::VecDeque<u64>);
        impl QueueHandle for VecQueue {
            fn enqueue(&mut self, value: u64) {
                self.0.push_back(value);
            }
            fn dequeue(&mut self) -> Option<u64> {
                self.0.pop_front()
            }
        }
        let mut q = VecQueue(std::collections::VecDeque::new());
        for i in 0..5 {
            q.enqueue(i);
        }
        assert_eq!(q.drain(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.drain(), Vec::<u64>::new());
    }

    #[test]
    fn drain_up_to_stops_at_the_bound_and_at_emptiness() {
        struct Cyclic(u64);
        impl QueueHandle for Cyclic {
            fn enqueue(&mut self, _value: u64) {}
            fn dequeue(&mut self) -> Option<u64> {
                // A corrupted chain: dequeues never run dry.
                self.0 += 1;
                Some(self.0)
            }
        }
        let mut endless = Cyclic(0);
        assert_eq!(endless.drain_up_to(4), vec![1, 2, 3, 4]);

        struct Two(Vec<u64>);
        impl QueueHandle for Two {
            fn enqueue(&mut self, value: u64) {
                self.0.push(value);
            }
            fn dequeue(&mut self) -> Option<u64> {
                if self.0.is_empty() {
                    None
                } else {
                    Some(self.0.remove(0))
                }
            }
        }
        let mut q = Two(vec![7, 8]);
        assert_eq!(q.drain_up_to(10), vec![7, 8], "stops early when empty");
    }
}
