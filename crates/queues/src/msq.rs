//! The original Michael–Scott lock-free queue (PODC 1996), on simulated memory.
//!
//! This is the *untransformed* baseline of Figure 7: plain CASes, no capsules, no
//! recoverable CAS, no flushes. Running its operations through a thread handle with
//! [`pmem::ThreadOptions`]`{ izraelevitz: true }` yields the "Izraelevitz queue" of
//! Figure 5 — durably linearizable by construction (a flush after every shared
//! access) but not detectable: after a crash a process cannot tell whether its
//! in-flight operation took effect.

use pmem::{PAddr, PThread};

use crate::api::{fifo_struct_handle, QueueHandle};
use crate::node::{alloc_node, chain_len, next_addr, value_addr};

/// The shared, persistent part of the queue: head and tail pointers (plain words
/// holding node addresses) plus the initial sentinel node.
#[derive(Clone, Copy, Debug)]
pub struct MsQueue {
    head: PAddr,
    tail: PAddr,
}

impl MsQueue {
    /// Create an empty queue (head and tail point at a sentinel node).
    pub fn new(thread: &PThread<'_>) -> MsQueue {
        let sentinel = alloc_node(thread, 0);
        let head = thread.alloc(1);
        let tail = thread.alloc(1);
        thread.write(head, sentinel.to_raw());
        thread.write(tail, sentinel.to_raw());
        MsQueue { head, tail }
    }

    /// Address of the head pointer (used by tests asserting durability).
    pub fn head_addr(&self) -> PAddr {
        self.head
    }

    /// Address of the tail pointer.
    pub fn tail_addr(&self) -> PAddr {
        self.tail
    }

    /// Create this thread's operation handle.
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> MsqHandle<'q, 't, 'm> {
        MsqHandle { queue: self, thread }
    }

    /// Count the elements currently reachable from the head (test/diagnostic helper;
    /// not linearizable with respect to concurrent operations).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        chain_len(thread, self.head)
    }

    /// Whether the queue is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self, thread: &PThread<'_>) -> bool {
        self.len(thread) == 0
    }
}

/// Per-thread handle for the Michael–Scott queue.
#[derive(Debug)]
pub struct MsqHandle<'q, 't, 'm> {
    queue: &'q MsQueue,
    thread: &'t PThread<'m>,
}

impl QueueHandle for MsqHandle<'_, '_, '_> {
    fn enqueue(&mut self, value: u64) {
        let t = self.thread;
        let q = self.queue;
        let node = alloc_node(t, value);
        loop {
            let last = PAddr::from_raw(t.read(q.tail));
            let next = PAddr::from_raw(t.read(next_addr(last)));
            if last.to_raw() != t.read(q.tail) {
                continue;
            }
            if next.is_null() {
                if t.cas(next_addr(last), 0, node.to_raw()) {
                    let _ = t.cas(q.tail, last.to_raw(), node.to_raw());
                    return;
                }
            } else {
                let _ = t.cas(q.tail, last.to_raw(), next.to_raw());
            }
        }
    }

    fn dequeue(&mut self) -> Option<u64> {
        let t = self.thread;
        let q = self.queue;
        loop {
            let first = PAddr::from_raw(t.read(q.head));
            let last = PAddr::from_raw(t.read(q.tail));
            let next = PAddr::from_raw(t.read(next_addr(first)));
            if first.to_raw() != t.read(q.head) {
                continue;
            }
            if first == last {
                if next.is_null() {
                    return None;
                }
                let _ = t.cas(q.tail, last.to_raw(), next.to_raw());
            } else {
                let value = t.read(value_addr(next));
                if t.cas(q.head, first.to_raw(), next.to_raw()) {
                    return Some(value);
                }
            }
        }
    }
}

fifo_struct_handle!(MsqHandle);

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem, ThreadOptions};
    use std::collections::HashSet;

    #[test]
    fn fifo_order_single_thread() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let q = MsQueue::new(&t);
        let mut h = q.handle(&t);
        assert_eq!(h.dequeue(), None);
        for i in 1..=100 {
            h.enqueue(i);
        }
        assert_eq!(q.len(&t), 100);
        for i in 1..=100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
        assert!(q.is_empty(&t));
    }

    #[test]
    fn concurrent_enqueue_dequeue_preserves_elements() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;
        let mem = PMem::with_threads(THREADS);
        let q = MsQueue::new(&mem.thread(0));
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
        // Drain what is left and check that every enqueued element was dequeued
        // exactly once (across the workers and the drain).
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "an element was dequeued twice");
    }

    #[test]
    fn izraelevitz_option_makes_contents_durable() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let q = MsQueue::new(&t);
        {
            let mut h = q.handle(&t);
            for i in 1..=10 {
                h.enqueue(i);
            }
        }
        mem.crash_all();
        // After a full-system crash everything the queue wrote was already flushed.
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        for i in 1..=10 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn plain_queue_issues_no_flushes_izraelevitz_does() {
        let mem = PMem::with_threads(1);
        let plain = mem.thread(0);
        let auto = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let q = MsQueue::new(&plain);
        let before = plain.stats();
        q.handle(&plain).enqueue(1);
        assert_eq!(plain.stats().since(&before).flushes, 0);
        let before = auto.stats();
        q.handle(&auto).enqueue(2);
        assert!(auto.stats().since(&before).flushes > 0);
    }
}
