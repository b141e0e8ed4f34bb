//! The uniform face of every structure variant: one operation enum, one handle
//! trait, and the bounded quiescent drain hook the sweeper's oracles rely on.

/// One operation of the stack/set family.
///
/// Stack handles accept `Push`/`Pop`; set handles accept
/// `Insert`/`Remove`/`Contains`. Applying an operation of the wrong shape is a
/// driver bug and panics (the `bench::dfck` workloads are shape-homogeneous by
/// construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructOp {
    /// Push this value onto the stack.
    Push(u64),
    /// Pop the top of the stack.
    Pop,
    /// Insert this key into the set (returns whether it was absent).
    Insert(u64),
    /// Remove this key from the set (returns whether it was present).
    Remove(u64),
    /// Membership test (returns whether the key is present).
    Contains(u64),
}

/// Result of a bounded drain: the collected history plus whether the walk was
/// cut off by the bound.
///
/// `truncated` is the cycle signal the sweeper's oracle consumes: callers
/// bound drains by the maximum node count the replay could have produced, so
/// a walk that hits the cap with structure contents (or chain nodes — a
/// cyclic chain of *marked* set nodes yields fewer keys than visited nodes)
/// still unvisited proves a corrupted chain. The flag makes that explicit
/// rather than inferable only from `items.len()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Drain {
    /// The drained history (top-down for stacks, ascending keys for sets).
    pub items: Vec<u64>,
    /// The walk stopped at the bound, not at the structure's end.
    pub truncated: bool,
}

/// The uniform per-thread handle every structure variant implements, mirroring
/// [`queues::QueueHandle`] for the non-FIFO shapes.
///
/// Like a queue handle, a struct handle is per-thread (it owns the thread's
/// capsule runtime where the variant has one) and must only be used by the
/// thread that created it.
pub trait StructHandle {
    /// Apply one operation, with the results word-encoded uniformly so one
    /// driver can replay any shape:
    ///
    /// * `Push` → `None`,
    /// * `Pop` → the popped value (or `None` on an empty stack),
    /// * `Insert` / `Remove` / `Contains` → `Some(1)` for *true*, `Some(0)`
    ///   for *false*.
    fn apply(&mut self, op: StructOp) -> Option<u64>;

    /// The `drain`-equivalent quiescent history hook: read off (and, for
    /// stacks, remove) the structure's remaining contents — top-down LIFO
    /// order for stacks, ascending key order for sets — visiting at most
    /// `max` elements (stacks) or chain nodes (sets).
    ///
    /// The bound exists for the same reason as
    /// [`queues::QueueHandle::drain_up_to`]: a recovery bug that produces a
    /// cyclic next-pointer chain must surface as a [`Drain`] with `truncated`
    /// set (an oracle violation carrying the offending crash schedule), not
    /// as a sweep that never terminates. Quiescent use only.
    fn drain_up_to(&mut self, max: usize) -> Drain;
}

/// Encode a boolean operation result in the uniform word encoding.
pub(crate) fn bool_ret(b: bool) -> Option<u64> {
    Some(b as u64)
}

/// Shared bounded pop-drain for the stack handles: pop until empty or until
/// `max` pops. `truncated` means the cap is what stopped the walk (the stack
/// *may* hold more; oracle callers pass a cap strictly above any legitimate
/// element count, so truncation there proves an over-long chain).
pub(crate) fn drain_by_pops(max: usize, mut pop: impl FnMut() -> Option<u64>) -> Drain {
    let mut items = Vec::new();
    while items.len() < max {
        match pop() {
            Some(v) => items.push(v),
            None => return Drain { items, truncated: false },
        }
    }
    Drain { items, truncated: max > 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_ret_encoding_is_zero_one() {
        assert_eq!(bool_ret(true), Some(1));
        assert_eq!(bool_ret(false), Some(0));
    }

    #[test]
    fn struct_ops_are_value_types() {
        let ops = [
            StructOp::Push(1),
            StructOp::Pop,
            StructOp::Insert(2),
            StructOp::Remove(2),
            StructOp::Contains(2),
        ];
        assert_eq!(ops, ops);
        assert_ne!(StructOp::Insert(1), StructOp::Insert(2));
    }
}
