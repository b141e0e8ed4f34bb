//! Queue node layout.
//!
//! Every queue in this crate uses the same persistent node record so that their
//! per-operation memory traffic is comparable:
//!
//! ```text
//! word 0 : value
//! word 1 : next        (plain pointer, or a recoverable-CAS ⟨value,pid,seq⟩ word)
//! word 2 : dequeuer    (only used by the detectable LogQueue; pid+1 of the claimer)
//! ```
//!
//! Nodes are bump-allocated from the simulated persistent memory and never reused
//! within a run, which keeps every pointer CAS ABA-free (the property the
//! recoverable CAS requires of its callers).

use delayfree::SharedMem;
use pmem::{PAddr, PThread};

/// Word offset of the value field.
pub const VALUE: u64 = 0;
/// Word offset of the next-pointer field.
pub const NEXT: u64 = 1;
/// Word offset of the dequeuer field (LogQueue only).
pub const DEQUEUER: u64 = 2;
/// Number of words in a node.
pub const NODE_WORDS: u64 = 3;

/// Allocate a node holding `value` with a null next pointer. The caller decides how
/// the `next` word is formatted (plain zero is both a null plain pointer and a null
/// recoverable-CAS value attributed to the anonymous pid).
pub fn alloc_node(thread: &PThread<'_>, value: u64) -> PAddr {
    let node = thread.alloc(NODE_WORDS);
    thread.write(node.offset(VALUE), value);
    // next and dequeuer are already durably zero (fresh allocations are zeroed).
    node
}

/// Address of a node's value word.
pub fn value_addr(node: PAddr) -> PAddr {
    node.offset(VALUE)
}

/// Address of a node's next word.
pub fn next_addr(node: PAddr) -> PAddr {
    node.offset(NEXT)
}

/// Address of a node's dequeuer word.
pub fn dequeuer_addr(node: PAddr) -> PAddr {
    node.offset(DEQUEUER)
}

/// Count the elements reachable from the node `head` points at (diagnostic;
/// not linearizable). One walk for every variant: `m` says how the variant
/// reads its head and next words.
pub fn chain_len<M: SharedMem>(m: &M, head: PAddr) -> usize {
    let mut count = 0;
    let mut node = PAddr::from_raw(m.read(head));
    loop {
        let next = PAddr::from_raw(m.read(next_addr(node)));
        if next.is_null() {
            return count;
        }
        count += 1;
        node = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PMem;

    #[test]
    fn nodes_are_laid_out_as_documented() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let n = alloc_node(&t, 42);
        assert_eq!(t.read(value_addr(n)), 42);
        assert_eq!(t.read(next_addr(n)), 0);
        assert_eq!(t.read(dequeuer_addr(n)), 0);
        assert_eq!(value_addr(n), n);
        assert_eq!(next_addr(n).index(), n.index() + 1);
        assert_eq!(dequeuer_addr(n).index(), n.index() + 2);
    }

    #[test]
    fn nodes_do_not_straddle_cache_lines() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        for _ in 0..64 {
            let n = alloc_node(&t, 1);
            assert_eq!(
                n.line_base(),
                n.offset(NODE_WORDS - 1).line_base(),
                "a node must fit in one cache line so one flush persists it"
            );
        }
    }
}
