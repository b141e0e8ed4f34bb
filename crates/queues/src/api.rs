//! The queues' enqueue/dequeue face and durability configuration. The
//! family-wide face every queue handle also answers (`Push`/`Pop` through
//! [`delayfree::StructHandle`]) and the capsule-handle scaffold live in
//! [`delayfree::handle`].

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

/// The enqueue/dequeue face every queue variant presents to the examples and
/// the integration tests, next to the family-wide [`delayfree::StructHandle`]
/// (whose `Push`/`Pop` are these two operations).
///
/// A handle is per-thread (it owns the thread's capsule runtime / operation log) and
/// must only be used by the thread that created it.
pub trait QueueHandle {
    /// Append `value` to the tail of the queue.
    fn enqueue(&mut self, value: u64);
    /// Remove and return the value at the head of the queue, or `None` if empty.
    fn dequeue(&mut self) -> Option<u64>;

    /// Dequeue until the queue is empty, returning the values in FIFO order.
    /// Quiescent use only — like `dequeue` it is per-thread and the result is
    /// only meaningful once concurrent operations have stopped.
    fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(v) = self.dequeue() {
            out.push(v);
        }
        out
    }

    /// [`drain`](QueueHandle::drain), but stop after at most `max` dequeues: a
    /// corrupted (cyclic) next-pointer chain must surface as an over-long
    /// result, never as a hang. [`delayfree::StructHandle::drain_up_to`] is the
    /// form of this hook the sweeper's oracles use, and documents the bound.
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

/// The family-wide face of a queue handle without a capsule runtime: `Push`
/// enqueues, `Pop` dequeues, the bounded drain dequeues. Trailing tokens are
/// further trait items (a handle that counts its own recoveries adds
/// `capsule_metrics`).
macro_rules! fifo_struct_handle {
    ($handle:ident $(, $($item:tt)+)?) => {
        impl delayfree::StructHandle for $handle<'_, '_, '_> {
            fn apply(&mut self, op: delayfree::StructOp) -> Option<u64> {
                delayfree::handle::apply_stack(self, op, Self::enqueue, Self::dequeue)
            }

            fn drain_up_to(&mut self, max: usize) -> delayfree::Drain {
                delayfree::handle::drain_by_pops(max, || self.dequeue())
            }

            $($($item)+)?
        }
    };
}
pub(crate) use fifo_struct_handle;

/// One body per suite the two capsule-transformed queues share (single-thread
/// FIFO semantics in both styles, concurrent exactness, random crashes on one
/// and on several threads, full-system-crash durability), generic over the
/// queue; the queues' test modules call these with a constructor.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use delayfree::{Capsuled, Handle, Simulator};
    use pmem::{install_quiet_crash_hook, CrashPlan, CrashPolicy, MemConfig, Mode, PMem, PThread};
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

    /// A restart that gives a process a *new* handle — a fresh frame, its
    /// sequence number at 0 — after fast operations that returned: the next
    /// operation announces a sequence number past every one the process
    /// announced before, so it can never meet an earlier operation's evidence
    /// under its own number (both style flags).
    pub(crate) fn new_handle_after_restart<Q: Capsuled>(build: impl Fn(&PThread<'_>, bool) -> Q)
    where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        for flag in [false, true] {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let q = build(&t, flag);
            let mut h = Handle::new(&q, &t);
            h.enqueue(1);
            h.enqueue(2);
            assert_eq!(h.dequeue(), Some(1));
            let announced = |t: &PThread<'_>| q.sim().space().announcement(t).seq;
            let before = announced(&t);
            mem.crash_all();
            let mut h = Handle::new(&q, &t);
            h.enqueue(3);
            let after = announced(&t);
            assert!(after > before, "style flag {flag}: seq {after} after {before}");
            assert_eq!(h.drain(), vec![2, 3], "style flag {flag}");
        }
    }

    /// A restart after a fast enqueue, or a fast dequeue, returned: the
    /// handle re-attached through the restart pointer dequeues and enqueues
    /// with a crash at each of their points (per-process and full-system
    /// crashes, both style flags), exactly once — neither operation may
    /// mistake the returned operation's evidence, still on the queue's
    /// words, for its own.
    pub(crate) fn crash_point_sweep_after_restart<Q: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> Q,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, Q>: QueueHandle,
    {
        install_quiet_crash_hook();
        let enqueued: &[Option<u64>] = &[Some(1), Some(2)];
        let dequeued: &[Option<u64>] = &[Some(1), Some(2), Some(3), None];
        let run = |flag, prefill: &[Option<u64>], system, plan: Option<CrashPlan>| {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache).system_crashes(system));
            let t = mem.thread(0);
            let q = build(&t, flag);
            let mut h = Handle::new(&q, &t);
            for op in prefill {
                match op {
                    Some(v) => h.enqueue(*v),
                    None => assert_eq!(h.dequeue(), Some(1)),
                }
            }
            mem.crash_all();
            let mut h = Handle::attach(&q, &t);
            let _ = t.take_stats();
            if let Some(plan) = plan {
                t.set_crash_schedule(plan);
            }
            let got = h.dequeue();
            h.enqueue(9);
            let points = t.stats().crash_points;
            t.disarm_crashes();
            ((got, h.drain_up_to(16)), points)
        };
        for flag in [false, true] {
            for (prefill, head) in [(enqueued, 1), (dequeued, 2)] {
                for system in [false, true] {
                    let (base, n) = run(flag, prefill, system, None);
                    let tail = if head == 1 { vec![2, 9] } else { vec![3, 9] };
                    assert_eq!(base, (Some(head), tail));
                    for k in 0..n {
                        let (got, _) = run(flag, prefill, system, Some(CrashPlan::once(k)));
                        assert_eq!(got, base, "flag={flag} system={system} crash at point {k}");
                    }
                }
            }
        }
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
