//! Node layouts and the marked-pointer encoding shared by every variant.
//!
//! Both structures use the same two-word persistent node so the per-operation
//! memory traffic is comparable across the family (and with the queues):
//!
//! ```text
//! word 0 : value (stack) / key (set)
//! word 1 : next  (plain pointer for the stack; marked-pointer encoding for the set)
//! ```
//!
//! Nodes are bump-allocated and never reused within a run, which keeps every
//! pointer CAS ABA-free — the property the recoverable CAS requires of its
//! callers (same argument as `queues::node`).
//!
//! ## The marked-pointer encoding (set only)
//!
//! The Harris–Michael list stores a node's *logical deletion* mark in the same
//! word as its successor pointer, so that one CAS can atomically freeze the
//! node (no insert can ever succeed after a marked predecessor — the mark
//! changes the very word the insert CAS expects). Word indices fit 32 bits
//! everywhere the workspace stores them in recoverable-CAS values (the
//! documented assumption of [`RcasLayout::DEFAULT`]), so the encoding shifts
//! the address up one bit and keeps the mark in bit 0:
//!
//! ```text
//! next = (successor_word_index << 1) | marked
//! ```
//!
//! Null (index 0) encodes to 0 both marked and not — a null successor is never
//! marked (marking happens on the *node being removed*, whose next word holds
//! its successor's encoding).
//!
//! In the detectable set variants the `next` words are recoverable-CAS
//! formatted; the encoding must therefore fit the layout's *value* field, which
//! the default 32-bit-value layout cannot hold (33 bits with the mark). The
//! set variants use [`SET_RCAS_LAYOUT`] — 33-bit values, 6-bit pids, 25-bit
//! sequence numbers (33M capsules per process, far beyond any sweep here).

use pmem::{PAddr, PThread};
use rcas::RcasLayout;

/// Word offset of the value (stack) / key (set) field.
pub const VALUE: u64 = 0;
/// Word offset of the next-pointer field.
pub const NEXT: u64 = 1;
/// Number of words in a node (fits one cache line, so one flush persists it).
pub const NODE_WORDS: u64 = 2;

/// The recoverable-CAS packing used by the detectable set variants: wide enough
/// for the shifted marked-pointer encoding (see the module docs).
pub const SET_RCAS_LAYOUT: RcasLayout = RcasLayout {
    value_bits: 33,
    pid_bits: 6,
    seq_bits: 25,
};

/// Allocate a node holding `value` with a null next pointer (fresh words are
/// durably zero, and zero is null in both the plain and the marked encoding).
pub fn alloc_node(thread: &PThread<'_>, value: u64) -> PAddr {
    let node = thread.alloc(NODE_WORDS);
    thread.write(node.offset(VALUE), value);
    node
}

/// Address of a node's value/key word.
pub fn value_addr(node: PAddr) -> PAddr {
    node.offset(VALUE)
}

/// Address of a node's next word.
pub fn next_addr(node: PAddr) -> PAddr {
    node.offset(NEXT)
}

/// The node whose next word sits at `next`: inverse of [`next_addr`].
pub fn node_of_next(next: PAddr) -> PAddr {
    PAddr::from_raw(next.to_raw() - NEXT)
}

/// Encode a successor address plus mark bit.
pub fn enc(succ: PAddr, marked: bool) -> u64 {
    (succ.to_raw() << 1) | marked as u64
}

/// The successor address of an encoded next word.
pub fn enc_addr(word: u64) -> PAddr {
    PAddr::from_raw(word >> 1)
}

/// The mark bit of an encoded next word.
pub fn enc_marked(word: u64) -> bool {
    word & 1 != 0
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
        assert_eq!(next_addr(n).to_raw(), n.to_raw() + 1);
        assert_eq!(node_of_next(next_addr(n)), n);
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

    #[test]
    fn marked_pointer_encoding_round_trips() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let n = alloc_node(&t, 0);
        for marked in [false, true] {
            let w = enc(n, marked);
            assert_eq!(enc_addr(w), n);
            assert_eq!(enc_marked(w), marked);
        }
        // Null encodes to zero unmarked — the durable-fresh-word contract.
        assert_eq!(enc(PAddr::NULL, false), 0);
        assert!(enc_addr(0).is_null());
        assert!(!enc_marked(0));
    }

    #[test]
    fn set_layout_is_valid_and_fits_the_encoding() {
        // Construct through `new` so the width assertions run.
        let l = RcasLayout::new(
            SET_RCAS_LAYOUT.value_bits,
            SET_RCAS_LAYOUT.pid_bits,
            SET_RCAS_LAYOUT.seq_bits,
        );
        assert_eq!(l, SET_RCAS_LAYOUT);
        // Every address the default layout can carry (the workspace-wide
        // "word indices fit in 32 bits" assumption of `RcasLayout::DEFAULT`),
        // shifted and marked, must fit this layout's value field.
        let max_index = RcasLayout::DEFAULT.max_value();
        assert!(enc(PAddr::from_raw(max_index), true) <= l.max_value());
    }
}
