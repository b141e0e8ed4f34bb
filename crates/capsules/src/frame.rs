//! Persistent stack frames and capsule-boundary emission.
//!
//! A frame stores, durably, everything a process needs to resume from its last
//! capsule boundary: the program counter, the per-process sequence number and the
//! persisted locals. Two layouts are provided.
//!
//! ## General layout (§2.3)
//!
//! ```text
//! word 0                 : control = (pc << 32) | validity mask
//! words 1 .. 1+S         : copy A of slots 0..S
//! words 1+S .. 1+2S      : copy B of slots 0..S
//! ```
//!
//! Each persisted slot has two copies; bit *i* of the validity mask says which copy
//! of slot *i* is current. A boundary writes the *invalid* copy of every changed
//! slot, flushes those lines, fences, then atomically publishes the new state by
//! writing the control word (new pc + flipped mask bits) and flushing + fencing it.
//! Slot 0 is always the sequence number; user locals occupy slots 1..S.
//!
//! ## Compact layout (§9, used by the `-Opt` variants)
//!
//! ```text
//! word 0        : (pc << 48) | sequence number     (written last)
//! words 1 .. 8  : up to 7 user locals (single copy)
//! ```
//!
//! Everything lives on one cache line, so a boundary is: write the changed locals,
//! write the control word (pc + sequence number together) last, one flush, one
//! fence — exploiting the fact that writes to the same cache line persist in the
//! order they were written. Packing the sequence number into the control word keeps
//! it atomic with the pc, which the recoverable-CAS protocol requires. The price is
//! a proof obligation on the encapsulated code: a capsule must not *depend on* a
//! persisted user local that its own boundary overwrites with a different value
//! (otherwise a crash that persists the new local but not the new pc would re-run
//! the capsule with corrupted inputs). The hand-optimised queue variants are written
//! to satisfy this; [`Frame::check_compact_war`] lets the runtime assert it in tests.

use pmem::{PAddr, PThread, LINE_WORDS};

/// Which boundary implementation a frame uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryStyle {
    /// Double-buffered slots + validity mask; two flushes and two fences per
    /// boundary. Works for any capsule.
    General,
    /// Single-cache-line frame; one flush and one fence per boundary. Limited to 6
    /// user locals and to capsules that do not overwrite their own persisted inputs.
    Compact,
}

impl BoundaryStyle {
    /// The style of a variant's hand-optimised (`-Opt`) configuration when
    /// `optimised`, of its plain configuration otherwise.
    pub fn opt(optimised: bool) -> BoundaryStyle {
        if optimised {
            BoundaryStyle::Compact
        } else {
            BoundaryStyle::General
        }
    }
}

/// Maximum number of user locals in a general frame (mask bits minus the seq slot).
pub const MAX_GENERAL_VARS: usize = 31;
/// Maximum number of user locals in a compact frame (one cache line minus the
/// control word, which holds both the pc and the sequence number).
pub const MAX_COMPACT_VARS: usize = (LINE_WORDS - 1) as usize;
/// Maximum sequence number representable in a compact frame's control word.
pub const MAX_COMPACT_SEQ: u64 = (1 << 48) - 1;

/// A persistent stack frame.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    base: PAddr,
    style: BoundaryStyle,
    /// Number of user locals (excluding the sequence-number slot).
    nvars: usize,
}

/// Slot index of the sequence number inside the frame.
pub(crate) const SEQ_SLOT: usize = 0;

impl Frame {
    /// Allocate a frame for `nvars` user locals.
    pub fn alloc(thread: &PThread<'_>, style: BoundaryStyle, nvars: usize) -> Frame {
        let frame = match style {
            BoundaryStyle::General => {
                assert!(
                    nvars <= MAX_GENERAL_VARS,
                    "a general frame supports at most {MAX_GENERAL_VARS} user locals (got {nvars})"
                );
                let slots = (nvars + 1) as u64;
                // Line-aligned so the number of lines a boundary touches (and hence
                // its flush count) is a property of the frame shape, not of what
                // happened to be allocated before it.
                let base = thread.alloc_aligned(1 + 2 * slots);
                Frame { base, style, nvars }
            }
            BoundaryStyle::Compact => {
                assert!(
                    nvars <= MAX_COMPACT_VARS,
                    "a compact frame supports at most {MAX_COMPACT_VARS} user locals (got {nvars})"
                );
                // One full cache line, never straddling (the arena aligns sub-line
                // allocations) — allocate the whole line so nothing else shares it.
                let base = thread.alloc(LINE_WORDS);
                Frame { base, style, nvars }
            }
        };
        // Make the initial (all-zero) frame durable so that the very first recovery
        // of a process that crashed before its first boundary is well defined.
        frame.persist_initial(thread);
        frame
    }

    /// Re-attach to an existing frame (after a restart, the address comes from the
    /// process's restart pointer).
    pub fn attach(base: PAddr, style: BoundaryStyle, nvars: usize) -> Frame {
        Frame { base, style, nvars }
    }

    /// The frame's base address (what gets stored in the restart pointer).
    pub fn base(&self) -> PAddr {
        self.base
    }

    /// The frame's boundary style.
    pub fn style(&self) -> BoundaryStyle {
        self.style
    }

    /// Number of user locals.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Total number of persisted slots (user locals + the sequence number).
    pub fn slots(&self) -> usize {
        self.nvars + 1
    }

    fn persist_initial(&self, thread: &PThread<'_>) {
        match self.style {
            BoundaryStyle::General => {
                // Control word and both copy regions are zero already (fresh
                // allocation); flush the lines they occupy.
                let words = 1 + 2 * self.slots() as u64;
                let mut w = 0;
                while w < words {
                    thread.flush(self.base.offset(w));
                    w += LINE_WORDS;
                }
                thread.fence();
            }
            BoundaryStyle::Compact => {
                thread.persist(self.base);
            }
        }
    }

    fn control_addr(&self) -> PAddr {
        self.base
    }

    fn copy_addr(&self, copy: u64, slot: usize) -> PAddr {
        debug_assert!(self.style == BoundaryStyle::General);
        debug_assert!(slot < self.slots());
        self.base.offset(1 + copy * self.slots() as u64 + slot as u64)
    }

    fn compact_slot_addr(&self, slot: usize) -> PAddr {
        debug_assert!(self.style == BoundaryStyle::Compact);
        debug_assert!(slot >= 1 && slot < self.slots(), "slot {slot} is not a user slot");
        // Slot 0 (the sequence number) lives inside the control word; user slot i
        // occupies word i of the line.
        self.base.offset(slot as u64)
    }

    /// Emit a capsule boundary: persist the changed slots and atomically publish the
    /// new program counter.
    ///
    /// `changed` lists `(slot, value)` pairs; slot [`SEQ_SLOT`] is the sequence
    /// number, slots `1..=nvars` are the user locals (user index + 1).
    pub fn write_boundary(&self, thread: &PThread<'_>, pc: u32, changed: &[(usize, u64)]) {
        match self.style {
            BoundaryStyle::General => self.write_boundary_general(thread, pc, changed),
            BoundaryStyle::Compact => self.write_boundary_compact(thread, pc, changed),
        }
    }

    fn write_boundary_general(&self, thread: &PThread<'_>, pc: u32, changed: &[(usize, u64)]) {
        let control = thread.read(self.control_addr());
        let mut mask = control & 0xFFFF_FFFF;
        if !changed.is_empty() {
            // Write the currently invalid copy of each changed slot.
            let mut touched_lines: Vec<u64> = Vec::with_capacity(changed.len());
            for &(slot, value) in changed {
                assert!(slot < self.slots(), "slot {slot} out of range");
                let valid_copy = (mask >> slot) & 1;
                let target = self.copy_addr(1 - valid_copy, slot);
                thread.write(target, value);
                mask ^= 1 << slot;
                let line = target.line_base().index();
                if !touched_lines.contains(&line) {
                    touched_lines.push(line);
                }
            }
            for line in touched_lines {
                thread.flush(PAddr::from_raw(line));
            }
            thread.fence();
        }
        // Atomically publish: new pc + flipped validity bits in one word. A
        // release store: the slot copies flushed above are ordered under the
        // control word, which is what recovery's reads rely on.
        let new_control = ((pc as u64) << 32) | mask;
        thread.write_release(self.control_addr(), new_control);
        thread.persist(self.control_addr());
    }

    fn write_boundary_compact(&self, thread: &PThread<'_>, pc: u32, changed: &[(usize, u64)]) {
        // The sequence number travels inside the control word, so fish it out of the
        // change list (or keep the current one if this boundary did not advance it).
        let mut seq = None;
        for &(slot, value) in changed {
            assert!(slot < self.slots(), "slot {slot} out of range");
            if slot == SEQ_SLOT {
                assert!(value <= MAX_COMPACT_SEQ, "sequence number overflows the compact frame");
                seq = Some(value);
            } else {
                thread.write(self.compact_slot_addr(slot), value);
            }
        }
        let seq = seq.unwrap_or_else(|| thread.read(self.control_addr()) & MAX_COMPACT_SEQ);
        // The control word (pc + seq) is written last; within one cache line, stores
        // persist in order, so a crash can never persist the new pc without the new
        // locals, and the pc/seq pair is updated atomically. Written as a
        // release store: the slot stores above are publication payload.
        thread.write_release(self.control_addr(), ((pc as u64) << 48) | seq);
        thread.persist(self.control_addr());
    }

    /// Read the persisted state back: `(pc, slot values)`. Constant work — this is
    /// what bounds the recovery delay of every simulator built on capsules.
    pub fn recover(&self, thread: &PThread<'_>) -> (u32, Vec<u64>) {
        match self.style {
            BoundaryStyle::General => {
                let control = thread.read(self.control_addr());
                let pc = (control >> 32) as u32;
                let mask = control & 0xFFFF_FFFF;
                let values = (0..self.slots())
                    .map(|slot| {
                        let valid_copy = (mask >> slot) & 1;
                        thread.read(self.copy_addr(valid_copy, slot))
                    })
                    .collect();
                (pc, values)
            }
            BoundaryStyle::Compact => {
                let control = thread.read(self.control_addr());
                let pc = (control >> 48) as u32;
                let mut values = vec![control & MAX_COMPACT_SEQ];
                values.extend((1..self.slots()).map(|slot| thread.read(self.compact_slot_addr(slot))));
                (pc, values)
            }
        }
    }

    /// For compact frames: report whether persisting `changed` would overwrite a
    /// slot in `read_mask` (slots the current capsule depended on) with a different
    /// value than the one it read — the write-after-read hazard described in the
    /// module docs. General frames are immune (double buffering) and return `false`.
    pub fn check_compact_war(
        &self,
        thread: &PThread<'_>,
        read_mask: u64,
        changed: &[(usize, u64)],
    ) -> bool {
        if self.style != BoundaryStyle::Compact {
            return false;
        }
        changed.iter().any(|&(slot, value)| {
            slot != SEQ_SLOT
                && (read_mask >> slot) & 1 == 1
                && thread.read(self.compact_slot_addr(slot)) != value
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MemConfig, Mode, PMem};

    fn mem() -> PMem {
        PMem::new(MemConfig::new(1).mode(Mode::SharedCache))
    }

    #[test]
    fn general_boundary_round_trip() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::General, 4);
        f.write_boundary(&t, 7, &[(SEQ_SLOT, 3), (1, 10), (2, 20)]);
        let (pc, vals) = f.recover(&t);
        assert_eq!(pc, 7);
        assert_eq!(vals[SEQ_SLOT], 3);
        assert_eq!(vals[1], 10);
        assert_eq!(vals[2], 20);
        assert_eq!(vals[3], 0, "untouched slot keeps its initial value");
    }

    #[test]
    fn compact_boundary_round_trip() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::Compact, 3);
        f.write_boundary(&t, 2, &[(SEQ_SLOT, 1), (1, 100)]);
        f.write_boundary(&t, 3, &[(2, 200)]);
        let (pc, vals) = f.recover(&t);
        assert_eq!(pc, 3);
        assert_eq!(vals, vec![1, 100, 200, 0]);
    }

    #[test]
    fn boundaries_survive_a_crash() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::General, 2);
        f.write_boundary(&t, 5, &[(SEQ_SLOT, 9), (1, 11), (2, 22)]);
        // Volatile-only update after the boundary must be lost; the boundary state
        // must survive.
        t.write(f.base().offset(1), 9999); // scribble on copy A without flushing
        m.crash_all();
        let t = m.thread(0);
        let (pc, vals) = f.recover(&t);
        assert_eq!(pc, 5);
        assert_eq!(vals[SEQ_SLOT], 9);
        assert_eq!(vals[1], 11);
        assert_eq!(vals[2], 22);
    }

    #[test]
    fn compact_boundary_survives_a_crash() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::Compact, 2);
        f.write_boundary(&t, 4, &[(SEQ_SLOT, 2), (1, 5), (2, 6)]);
        m.crash_all();
        let t = m.thread(0);
        let (pc, vals) = f.recover(&t);
        assert_eq!((pc, vals[SEQ_SLOT], vals[1], vals[2]), (4, 2, 5, 6));
    }

    #[test]
    fn repeated_boundaries_alternate_copies_correctly() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::General, 1);
        for i in 1..=20u64 {
            f.write_boundary(&t, i as u32, &[(1, i * 10)]);
            let (pc, vals) = f.recover(&t);
            assert_eq!(pc as u64, i);
            assert_eq!(vals[1], i * 10);
        }
    }

    #[test]
    fn compact_uses_fewer_fences_than_general() {
        let m = mem();
        let t = m.thread(0);
        let general = Frame::alloc(&t, BoundaryStyle::General, 3);
        let compact = Frame::alloc(&t, BoundaryStyle::Compact, 3);
        let before = t.stats();
        general.write_boundary(&t, 1, &[(1, 1), (2, 2)]);
        let mid = t.stats();
        compact.write_boundary(&t, 1, &[(1, 1), (2, 2)]);
        let after = t.stats();
        let general_cost = mid.since(&before);
        let compact_cost = after.since(&mid);
        assert_eq!(general_cost.fences, 2, "general boundary uses two fences");
        assert_eq!(compact_cost.fences, 1, "compact boundary uses one fence");
        assert!(compact_cost.flushes < general_cost.flushes || compact_cost.flushes == 1);
    }

    #[test]
    fn attach_reconstructs_the_same_frame() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::General, 2);
        f.write_boundary(&t, 9, &[(1, 77)]);
        let g = Frame::attach(f.base(), BoundaryStyle::General, 2);
        let (pc, vals) = g.recover(&t);
        assert_eq!(pc, 9);
        assert_eq!(vals[1], 77);
    }

    #[test]
    fn compact_war_check_detects_hazard() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::Compact, 2);
        f.write_boundary(&t, 1, &[(1, 10)]);
        // The capsule read slot 1 (mask bit 1) and now wants to persist a different
        // value into it: hazard.
        assert!(f.check_compact_war(&t, 0b010, &[(1, 11)]));
        // Persisting the same value, or a slot the capsule did not read, is fine.
        assert!(!f.check_compact_war(&t, 0b010, &[(1, 10)]));
        assert!(!f.check_compact_war(&t, 0b010, &[(2, 11)]));
        // General frames never report a hazard.
        let g = Frame::alloc(&t, BoundaryStyle::General, 2);
        g.write_boundary(&t, 1, &[(1, 10)]);
        assert!(!g.check_compact_war(&t, 0b010, &[(1, 11)]));
    }

    #[test]
    #[should_panic]
    fn too_many_compact_vars_panics() {
        let m = mem();
        let t = m.thread(0);
        let _ = Frame::alloc(&t, BoundaryStyle::Compact, MAX_COMPACT_VARS + 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let m = mem();
        let t = m.thread(0);
        let f = Frame::alloc(&t, BoundaryStyle::General, 1);
        f.write_boundary(&t, 1, &[(5, 1)]);
    }
}
