//! The plain Treiber stack (IBM TR 1986) on simulated memory.
//!
//! This is the untransformed baseline of the structure family, exactly like
//! [`queues::MsQueue`] is for the queues: plain CASes, no capsules, no
//! recoverable CAS, no flushes. Running its operations through a thread handle
//! with [`pmem::ThreadOptions`]`{ izraelevitz: true }` yields the
//! Izraelevitz-transformed stack — durably linearizable by construction (a
//! flush after every shared access) but **not** detectable: after a crash the
//! process cannot tell whether its in-flight push/pop took effect.

use delayfree::SharedMem;
use pmem::{PAddr, PThread};

use crate::api::{apply_stack, drain_by_pops, Drain, StructHandle, StructOp};
use crate::node::{alloc_node, next_addr, value_addr};

/// Count the elements reachable from the `top` word (diagnostic; not
/// linearizable with respect to concurrent operations). One walk for every
/// construction: `m` says how the construction reads `top`; next words are
/// plain everywhere.
pub(crate) fn len_of<M: SharedMem>(m: &M, top: PAddr) -> usize {
    let mut count = 0;
    let mut node = PAddr::from_raw(m.read(top));
    while !node.is_null() {
        count += 1;
        node = PAddr::from_raw(m.read_plain(next_addr(node)));
    }
    count
}

/// The shared, persistent part of the stack: the `top` pointer word.
#[derive(Clone, Copy, Debug)]
pub struct TreiberStack {
    top: PAddr,
}

impl TreiberStack {
    /// Create an empty stack.
    pub fn new(thread: &PThread<'_>) -> TreiberStack {
        let top = thread.alloc(1);
        thread.write(top, 0);
        TreiberStack { top }
    }

    /// Address of the top pointer (used by tests asserting durability).
    pub fn top_addr(&self) -> PAddr {
        self.top
    }

    /// Create this thread's operation handle.
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> TreiberStackHandle<'q, 't, 'm> {
        TreiberStackHandle { stack: self, thread }
    }

    /// Count the elements currently reachable from the top (diagnostic; not
    /// linearizable with respect to concurrent operations).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(thread, self.top)
    }

    /// Whether the stack is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self, thread: &PThread<'_>) -> bool {
        self.len(thread) == 0
    }
}

/// Per-thread handle for the plain Treiber stack.
#[derive(Debug)]
pub struct TreiberStackHandle<'q, 't, 'm> {
    stack: &'q TreiberStack,
    thread: &'t PThread<'m>,
}

impl TreiberStackHandle<'_, '_, '_> {
    /// Push `value` onto the stack.
    pub fn push(&mut self, value: u64) {
        let t = self.thread;
        let node = alloc_node(t, value);
        loop {
            let top = t.read(self.stack.top);
            t.write(next_addr(node), top);
            if t.cas(self.stack.top, top, node.to_raw()) {
                return;
            }
        }
    }

    /// Pop the top of the stack.
    pub fn pop(&mut self) -> Option<u64> {
        let t = self.thread;
        loop {
            let top = PAddr::from_raw(t.read(self.stack.top));
            if top.is_null() {
                return None;
            }
            let next = t.read(next_addr(top));
            let value = t.read(value_addr(top));
            if t.cas(self.stack.top, top.to_raw(), next) {
                return Some(value);
            }
        }
    }
}

impl StructHandle for TreiberStackHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        apply_stack(self, op, Self::push, Self::pop)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        drain_by_pops(max, || self.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem, ThreadOptions};
    use std::collections::HashSet;

    #[test]
    fn lifo_order_single_thread() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = TreiberStack::new(&t);
        let mut h = s.handle(&t);
        assert_eq!(h.pop(), None);
        for i in 1..=100 {
            h.push(i);
        }
        assert_eq!(s.len(&t), 100);
        for i in (1..=100).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
        assert!(s.is_empty(&t));
    }

    #[test]
    fn concurrent_push_pop_preserves_elements() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;
        let mem = PMem::with_threads(THREADS);
        let s = TreiberStack::new(&mem.thread(0));
        let results: Vec<Vec<u64>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let s = &s;
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = s.handle(&t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.push((pid as u64) << 32 | i);
                            if let Some(v) = h.pop() {
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
        let mut h = s.handle(&t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "an element was popped twice");
    }

    #[test]
    fn izraelevitz_option_makes_contents_durable() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let s = TreiberStack::new(&t);
        {
            let mut h = s.handle(&t);
            for i in 1..=10 {
                h.push(i);
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        for i in (1..=10).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn struct_handle_face_encodes_results_and_drains_lifo() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = TreiberStack::new(&t);
        let mut h = s.handle(&t);
        assert_eq!(h.apply(StructOp::Push(5)), None);
        assert_eq!(h.apply(StructOp::Push(6)), None);
        assert_eq!(h.apply(StructOp::Pop), Some(6));
        h.push(7);
        let d = h.drain_up_to(8);
        assert_eq!((d.items, d.truncated), (vec![7, 5], false));
        assert_eq!(h.drain_up_to(8).items, Vec::<u64>::new());
        // A cap below the element count reports truncation.
        for v in [1, 2, 3] {
            h.push(v);
        }
        let d = h.drain_up_to(2);
        assert_eq!((d.items, d.truncated), (vec![3, 2], true));
    }
}
