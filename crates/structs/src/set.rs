//! The lock-free sorted linked-list set (Harris 2001 / Michael 2002): the
//! protocol every construction shares, and its plain shell — the set-shaped
//! counterpart of [`queues::MsQueue`].
//!
//! Keys live in a singly linked list kept in ascending order. A remove is two
//! CASes: first the *logical* deletion sets the mark bit inside the victim's
//! own next word (the linearization point — and, because the mark changes the
//! very word an insert-after-victim would CAS, no insert can ever succeed
//! behind a deleted node), then a *physical* unlink swings the predecessor
//! past it. Unlinks are helping work: the remover attempts one, and every
//! later traversal unlinks whatever marked nodes it walks over, so windows
//! stay adjacent (`pred.next == curr`) without any traversal ever blocking.
//!
//! The search, the read-only membership walk, the count and the bounded
//! snapshot are parallelizable and written once over [`SharedMem`]; the
//! General and Normalized sets ([`set_general`](crate::set_general),
//! [`set_normalized`](crate::set_normalized)) run them through their
//! simulator's face, [`ListSet`] through the bare thread.
//!
//! [`ListSet`] itself is plain CASes, no capsules, no flushes: running its
//! operations through a thread handle with
//! [`pmem::ThreadOptions`]`{ izraelevitz: true }` yields the durably
//! linearizable (but **not** detectable) Izraelevitz set.

use delayfree::SharedMem;
use pmem::{PAddr, PThread};

use crate::api::{apply_keyed, Drain, StructHandle, StructOp};
use crate::node::{alloc_node, enc, enc_addr, enc_marked, next_addr, value_addr};

/// A search window: the word to CAS for an insert/unlink, its expected
/// encoding, and the first unmarked node with `key >= k` (null at the end of
/// the list). `pred_enc` always decodes to `curr` unmarked — adjacency. Every
/// field is a boundary-persistable word.
pub(crate) struct Window {
    pub pred_addr: PAddr,
    pub pred_enc: u64,
    pub curr: PAddr,
    /// `curr`'s next encoding (unmarked) at observation time; 0 when `curr` is null.
    pub curr_enc: u64,
    pub found: bool,
}

/// Harris–Michael search from the head word `head`: locate the window for `k`,
/// unlinking every marked node encountered with a helping CAS (restarting from
/// the head when an unlink loses its race).
pub(crate) fn find<M: SharedMem>(m: &M, head: PAddr, k: u64) -> Window {
    'retry: loop {
        let mut pred_addr = head;
        let mut pred_enc = m.read(pred_addr);
        loop {
            let curr = enc_addr(pred_enc);
            if curr.is_null() {
                return Window {
                    pred_addr,
                    pred_enc,
                    curr,
                    curr_enc: 0,
                    found: false,
                };
            }
            let curr_enc = m.read(next_addr(curr));
            if enc_marked(curr_enc) {
                // Logically deleted: help unlink, keeping the window adjacent.
                let unmarked = enc(enc_addr(curr_enc), false);
                if !m.help_cas_flush(pred_addr, pred_enc, unmarked) {
                    continue 'retry;
                }
                pred_enc = unmarked;
                continue;
            }
            let ck = m.read_plain(value_addr(curr));
            if ck >= k {
                return Window {
                    pred_addr,
                    pred_enc,
                    curr,
                    curr_enc,
                    found: ck == k,
                };
            }
            pred_addr = next_addr(curr);
            pred_enc = curr_enc;
        }
    }
}

/// Membership walk (read-only: skips marked nodes without helping).
pub(crate) fn contains_in<M: SharedMem>(m: &M, head: PAddr, k: u64) -> bool {
    let mut node = enc_addr(m.read(head));
    while !node.is_null() {
        let next = m.read(next_addr(node));
        let ck = m.read_plain(value_addr(node));
        if !enc_marked(next) {
            if ck == k {
                return true;
            }
            if ck > k {
                return false;
            }
        }
        node = enc_addr(next);
    }
    false
}

/// Count the unmarked keys (diagnostic; not linearizable).
pub(crate) fn len_of<M: SharedMem>(m: &M, head: PAddr) -> usize {
    let mut count = 0;
    let mut node = enc_addr(m.read(head));
    while !node.is_null() {
        let next = m.read(next_addr(node));
        if !enc_marked(next) {
            count += 1;
        }
        node = enc_addr(next);
    }
    count
}

/// Bounded ascending snapshot — the set handles' drain hook: walk the chain,
/// collecting unmarked keys, visiting at most `max` nodes (marked or not — a
/// cycle consisting only of marked nodes never grows the key list, so the
/// bound must count *visits*).
///
/// `truncated` is precise for sets: it is set exactly when the walk stopped
/// at the cap with chain nodes still unvisited. Oracle callers bound `max` by
/// the total nodes the replay could have allocated, so truncation proves a
/// corrupted (cyclic) chain even when the collected keys alone would have
/// matched the model — the marked-cycle case a pure length check misses.
pub(crate) fn snapshot_up_to<M: SharedMem>(m: &M, head: PAddr, max: usize) -> Drain {
    let mut items = Vec::new();
    let mut visited = 0usize;
    let mut node = enc_addr(m.read(head));
    while !node.is_null() && visited < max {
        visited += 1;
        let next = m.read(next_addr(node));
        if !enc_marked(next) {
            items.push(m.read_plain(value_addr(node)));
        }
        node = enc_addr(next);
    }
    Drain {
        items,
        truncated: !node.is_null(),
    }
}

/// The shared, persistent part of the plain set: one word holding the encoded
/// pointer to the first node (a degenerate sentinel — the head itself can
/// never be marked, so its word always decodes unmarked).
#[derive(Clone, Copy, Debug)]
pub struct ListSet {
    head: PAddr,
}

impl ListSet {
    /// Create an empty set.
    pub fn new(thread: &PThread<'_>) -> ListSet {
        let head = thread.alloc(1);
        thread.write(head, 0);
        ListSet { head }
    }

    /// Address of the head word (used by tests asserting durability).
    pub fn head_addr(&self) -> PAddr {
        self.head
    }

    /// Create this thread's operation handle.
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> ListSetHandle<'q, 't, 'm> {
        ListSetHandle { set: self, thread }
    }

    /// Count the unmarked keys (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        len_of(thread, self.head)
    }
}

/// Per-thread handle for the plain list set.
#[derive(Debug)]
pub struct ListSetHandle<'q, 't, 'm> {
    set: &'q ListSet,
    thread: &'t PThread<'m>,
}

impl ListSetHandle<'_, '_, '_> {
    /// Insert `k`; returns whether it was absent.
    pub fn insert(&mut self, k: u64) -> bool {
        let t = self.thread;
        loop {
            let w = find(t, self.set.head, k);
            if w.found {
                return false;
            }
            let node = alloc_node(t, k);
            t.write(next_addr(node), w.pred_enc);
            if t.cas(w.pred_addr, w.pred_enc, enc(node, false)) {
                return true;
            }
        }
    }

    /// Remove `k`; returns whether it was present.
    pub fn remove(&mut self, k: u64) -> bool {
        let t = self.thread;
        loop {
            let w = find(t, self.set.head, k);
            if !w.found {
                return false;
            }
            // Logical deletion: the linearization point.
            if !t.cas(next_addr(w.curr), w.curr_enc, w.curr_enc | 1) {
                continue;
            }
            // Best-effort physical unlink; traversals finish the job if it loses.
            let _ = t.cas(w.pred_addr, w.pred_enc, w.curr_enc);
            return true;
        }
    }

    /// Membership test (read-only: skips marked nodes without helping).
    pub fn contains(&mut self, k: u64) -> bool {
        contains_in(self.thread, self.set.head, k)
    }
}

impl StructHandle for ListSetHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        apply_keyed(self, op, Self::insert, Self::remove, Self::contains)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        snapshot_up_to(self.thread, self.set.head, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem, ThreadOptions};

    #[test]
    fn insert_remove_contains_single_thread() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = ListSet::new(&t);
        let mut h = s.handle(&t);
        assert!(!h.contains(5));
        assert!(h.insert(5));
        assert!(h.insert(3));
        assert!(h.insert(9));
        assert!(!h.insert(5), "duplicate insert must fail");
        assert!(h.contains(3) && h.contains(5) && h.contains(9));
        assert!(!h.contains(4));
        assert_eq!(h.drain_up_to(16).items, vec![3, 5, 9], "ascending snapshot");
        assert!(h.remove(5));
        assert!(!h.remove(5), "double remove must fail");
        assert!(!h.contains(5));
        assert_eq!(h.drain_up_to(16).items, vec![3, 9]);
        assert_eq!(s.len(&t), 2);
        // Re-insert after remove works (fresh node, no ABA).
        assert!(h.insert(5));
        assert_eq!(h.drain_up_to(16).items, vec![3, 5, 9]);
    }

    #[test]
    fn boundary_keys_zero_and_max() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = ListSet::new(&t);
        let mut h = s.handle(&t);
        assert!(h.insert(0));
        assert!(h.insert(u64::MAX));
        assert!(h.contains(0) && h.contains(u64::MAX));
        assert_eq!(h.drain_up_to(16).items, vec![0, u64::MAX]);
        assert!(h.remove(0));
        assert_eq!(h.drain_up_to(16).items, vec![u64::MAX]);
    }

    #[test]
    fn concurrent_disjoint_key_ranges_all_land() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 400;
        let mem = PMem::with_threads(THREADS);
        let s = ListSet::new(&mem.thread(0));
        std::thread::scope(|sc| {
            for pid in 0..THREADS {
                let mem = &mem;
                let s = &s;
                sc.spawn(move || {
                    let t = mem.thread(pid);
                    let mut h = s.handle(&t);
                    for i in 0..PER_THREAD {
                        // Interleaved ranges so windows contend across threads.
                        assert!(h.insert(i * THREADS as u64 + pid as u64));
                    }
                });
            }
        });
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        let all = h.drain_up_to(THREADS * PER_THREAD as usize + 1).items;
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "sorted and duplicate-free");
    }

    #[test]
    fn concurrent_insert_remove_same_keys_is_exact() {
        // Every thread inserts then removes the same small key range; at the
        // end the set must be empty and every operation pair must have agreed
        // (insert true exactly once per present/absent transition).
        const THREADS: usize = 3;
        const ROUNDS: u64 = 300;
        let mem = PMem::with_threads(THREADS);
        let s = ListSet::new(&mem.thread(0));
        let counts: Vec<(u64, u64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let s = &s;
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = s.handle(&t);
                        let mut ins = 0;
                        let mut rem = 0;
                        for r in 0..ROUNDS {
                            let k = r % 7;
                            if h.insert(k) {
                                ins += 1;
                            }
                            if h.remove(k) {
                                rem += 1;
                            }
                        }
                        (ins, rem)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_ins: u64 = counts.iter().map(|c| c.0).sum();
        let total_rem: u64 = counts.iter().map(|c| c.1).sum();
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        let left = h.drain_up_to(64).items;
        assert_eq!(
            total_ins,
            total_rem + left.len() as u64,
            "every successful insert is matched by a successful remove or survives"
        );
    }

    #[test]
    fn izraelevitz_option_makes_contents_durable() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread_with(0, ThreadOptions { izraelevitz: true });
        let s = ListSet::new(&t);
        {
            let mut h = s.handle(&t);
            for k in [4, 1, 3] {
                assert!(h.insert(k));
            }
            assert!(h.remove(3));
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        assert_eq!(h.drain_up_to(16).items, vec![1, 4]);
    }

    #[test]
    fn snapshot_bound_terminates_and_flags_a_cycled_chain() {
        // Artificially corrupt the chain into a cycle and check the bounded
        // snapshot terminates AND reports truncation (the drain-hook contract
        // the sweep oracle consumes).
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = ListSet::new(&t);
        let mut h = s.handle(&t);
        assert!(h.insert(1));
        assert!(h.insert(2));
        let first = enc_addr(t.read(s.head_addr()));
        let second = enc_addr(t.read(next_addr(first)));
        // second.next -> first: a cycle of unmarked nodes.
        t.write(next_addr(second), enc(first, false));
        let d = h.drain_up_to(10);
        assert_eq!(d.items.len(), 10, "bounded walk visits exactly `max` nodes and stops");
        assert!(d.truncated, "a cycle must be reported, not silently cut off");
    }

    #[test]
    fn snapshot_flags_a_cycle_of_marked_nodes_despite_short_key_list() {
        // The harsher shape: a cycle consisting only of *marked* nodes
        // collects no keys at all, so a pure key-count check would pass; the
        // truncation flag is what catches it.
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = ListSet::new(&t);
        let mut h = s.handle(&t);
        assert!(h.insert(1));
        assert!(h.insert(2));
        let first = enc_addr(t.read(s.head_addr()));
        let second = enc_addr(t.read(next_addr(first)));
        // Mark both nodes and cycle second.next back to first (marked).
        t.write(next_addr(first), enc(second, true));
        t.write(next_addr(second), enc(first, true));
        let d = h.drain_up_to(10);
        assert_eq!(d.items, Vec::<u64>::new(), "marked nodes contribute no keys");
        assert!(
            d.truncated,
            "the marked-node cycle must still be reported as truncation"
        );
    }
}
