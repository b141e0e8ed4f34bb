//! The design-choice ablations of DESIGN.md §4, as single-process loops:
//!
//! * recoverable CAS: the paper's Algorithm 1 (packed word) vs the Attiya-style
//!   O(P²) variant vs the indirection-based encoding vs a plain CAS,
//! * capsule boundaries: General (double-buffered + mask) vs Compact (one line),
//! * writable CAS objects (Algorithm 8) vs plain persistent words.
//!
//! One table, [`ALL`], shared by the `instr_overhead` binary (which times each
//! loop, disarmed) and the tier-1 count table of `tests/op_counts.rs` (which
//! pins its instructions, reads, writes, CASes, flushes and fences). A
//! `-durable` row switches on the construction's shared-cache flush
//! discipline (`with_durability`, or the indirect family's `durable_records`).

use std::hint::black_box;

use capsules::{BoundaryStyle, CapsuleRuntime};
use pmem::{PThread, Stats};
use rcas::{AttiyaRcas, IndirectRcas, RcasSpace, WritableCasArray};

/// One ablation: its table label, and its loop. The loop builds the ablated
/// object on `t` (pid 0 of a one-process machine), runs `ops` operations on
/// it and returns the counts of the operations alone. Every CAS succeeds
/// (values count up from 0); recoverable CASes take sequence numbers from 1,
/// so `ops` must stay inside the 26-bit sequence field of Algorithm 1 and the
/// Attiya object, and the indirect family allocates a record per CAS.
pub type Ablation = (&'static str, fn(&PThread<'_>, u64) -> Stats);

/// Every ablation, in table order.
pub const ALL: [Ablation; 13] = [
    ("cas/plain", |t, ops| {
        let x = t.alloc(1);
        count(t, ops, |i| assert!(t.cas(x, i, i + 1)))
    }),
    ("cas/algorithm1", |t, ops| algorithm1(t, ops, false)),
    ("cas/algorithm1-durable", |t, ops| algorithm1(t, ops, true)),
    ("cas/attiya", |t, ops| {
        let obj = AttiyaRcas::new(t, 1, 0);
        count(t, ops, |i| assert!(obj.cas(t, i, i + 1, i + 1)))
    }),
    ("cas/indirect", |t, ops| indirect(t, ops, false)),
    ("cas/indirect-durable", |t, ops| indirect(t, ops, true)),
    ("boundary/general", |t, ops| {
        boundary(t, ops, BoundaryStyle::General)
    }),
    ("boundary/compact", |t, ops| {
        boundary(t, ops, BoundaryStyle::Compact)
    }),
    ("write/plain", |t, ops| {
        let x = t.alloc(1);
        count(t, ops, |i| t.write(x, black_box(i)))
    }),
    ("write/algorithm8", |t, ops| algorithm8_write(t, ops, false)),
    ("write/algorithm8-durable", |t, ops| {
        algorithm8_write(t, ops, true)
    }),
    ("cas/algorithm8", |t, ops| algorithm8_cas(t, ops, false)),
    ("cas/algorithm8-durable", |t, ops| {
        algorithm8_cas(t, ops, true)
    }),
];

/// Algorithm 1: ⟨value, pid, seq⟩ packed into one word.
fn algorithm1(t: &PThread<'_>, ops: u64, durable: bool) -> Stats {
    let space = RcasSpace::with_default_layout(t, 1).with_durability(durable);
    let x = space.create(t, 0).addr();
    count(t, ops, |i| assert!(space.cas(t, x, i, i + 1, i + 1)))
}

/// The indirection-based encoding: a fresh descriptor record per CAS.
fn indirect(t: &PThread<'_>, ops: u64, durable: bool) -> Stats {
    let family = IndirectRcas::new(t, 1, durable);
    let x = family.create(t, 0);
    count(t, ops, |i| assert!(family.cas(t, x, i, i + 1, i + 1)))
}

/// A capsule boundary persisting two changed locals (WAR check off).
fn boundary(t: &PThread<'_>, ops: u64, style: BoundaryStyle) -> Stats {
    let mut rt = CapsuleRuntime::new(t, style, 3);
    rt.set_war_check(false);
    count(t, ops, |i| {
        rt.set_local(0, i);
        rt.set_local(1, i + 1);
        rt.boundary((i % 1000) as u32);
    })
}

/// Algorithm 8's `Write`: a fresh backing location and a pointer swing.
fn algorithm8_write(t: &PThread<'_>, ops: u64, durable: bool) -> Stats {
    let arr = WritableCasArray::new(t, 1, 1).with_durability(durable);
    let mut h = arr.handle(t);
    count(t, ops, |i| h.write(t, 0, black_box(i)))
}

/// Algorithm 8's `CAS`: announce, dereference, CAS.
fn algorithm8_cas(t: &PThread<'_>, ops: u64, durable: bool) -> Stats {
    let arr = WritableCasArray::new(t, 1, 1).with_durability(durable);
    let h = arr.handle(t);
    count(t, ops, |i| assert!(h.cas(t, 0, i, i + 1)))
}

/// The counts of `ops` calls of `op` on `t`.
fn count(t: &PThread<'_>, ops: u64, mut op: impl FnMut(u64)) -> Stats {
    let before = t.stats();
    for i in 0..ops {
        op(i);
    }
    t.stats().since(&before)
}
