//! The shared-memory face of parallelizable code.
//!
//! Searches, traversals, helping CASes and the whole resize machinery of the
//! structures are *parallelizable* in the sense of §7: safe to repeat, harmless
//! to lose. Such code needs no capsule of its own, so one copy of it can serve
//! every construction of a structure — it only has to be told how the
//! construction reads a word, how it performs a helping CAS, and whether it
//! places flushes by hand. [`SharedMem`] is that seam. Two things implement it:
//!
//! * [`PThread`] — the untransformed program (and the Izraelevitz construction,
//!   whose flushes come from the thread options): plain words, plain CASes, no
//!   hand-placed flushes;
//! * [`RcasMem`] — the detectable constructions, handed out by both simulators
//!   ([`Simulator::mem`](crate::Simulator::mem), and
//!   [`NormalizedCtx::mem`](crate::NormalizedCtx::mem) inside generators and
//!   wrap-ups): recoverable-CAS-formatted words, anonymous
//!   helping CASes, flushes when the simulator places them by hand.
//!
//! Linearizing CASes never go through this trait: they belong to the simulator
//! ([`CasReadSimulator::capsule_cas`](crate::CasReadSimulator::capsule_cas), the
//! normalized executor).

use pmem::{PAddr, PThread};
use rcas::RcasSpace;

/// Word access for parallelizable code, abstracted over the construction.
pub trait SharedMem {
    /// Read a shared word's application value.
    fn read(&self, addr: PAddr) -> u64;
    /// Read a plain (never CASed by a capsule) word: node keys, sizes.
    fn read_plain(&self, addr: PAddr) -> u64;
    /// Value-level helping CAS — anonymous in the detectable constructions, so
    /// it never clobbers the notification owed to a capsule CAS on the word.
    fn help_cas(&self, addr: PAddr, expected: u64, new: u64) -> bool;
    /// Format a fresh word to hold `value`.
    fn init_word(&self, addr: PAddr, value: u64);
    /// Plain store into a word nobody shares yet.
    fn write_plain(&self, addr: PAddr, value: u64);
    /// Bump-allocate `nwords` persistent words.
    fn alloc(&self, nwords: u64) -> PAddr;
    /// Flush the line holding `addr` (no fence) where flushes are hand-placed.
    fn flush_line(&self, addr: PAddr);
    /// Ordering fence where flushes are hand-placed.
    fn fence(&self);

    /// A helping CAS followed, on success, by the unfenced flush of its target:
    /// helping effects need no ordering of their own — whoever depends on one
    /// re-reads (and re-helps) it.
    fn help_cas_flush(&self, addr: PAddr, expected: u64, new: u64) -> bool {
        let ok = self.help_cas(addr, expected, new);
        if ok {
            self.flush_line(addr);
        }
        ok
    }
}

/// The untransformed program: every word is plain, and durability (if any)
/// comes from the thread options, never from hand-placed flushes.
impl SharedMem for PThread<'_> {
    fn read(&self, addr: PAddr) -> u64 {
        PThread::read(self, addr)
    }
    fn read_plain(&self, addr: PAddr) -> u64 {
        PThread::read(self, addr)
    }
    fn help_cas(&self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.cas(addr, expected, new)
    }
    fn init_word(&self, addr: PAddr, value: u64) {
        self.write(addr, value)
    }
    fn write_plain(&self, addr: PAddr, value: u64) {
        self.write(addr, value)
    }
    fn alloc(&self, nwords: u64) -> PAddr {
        PThread::alloc(self, nwords)
    }
    fn flush_line(&self, _addr: PAddr) {}
    fn fence(&self) {}
}

/// The detectable constructions: words formatted for the recoverable CAS of
/// `space`, anonymous helping CASes, and hand-placed flushes when `durable`.
#[derive(Clone, Copy, Debug)]
pub struct RcasMem<'a, 't, 'm> {
    space: &'a RcasSpace,
    thread: &'t PThread<'m>,
    durable: bool,
}

impl<'a, 't, 'm> RcasMem<'a, 't, 'm> {
    pub(crate) fn new(space: &'a RcasSpace, thread: &'t PThread<'m>, durable: bool) -> Self {
        RcasMem {
            space,
            thread,
            durable,
        }
    }
}

impl SharedMem for RcasMem<'_, '_, '_> {
    fn read(&self, addr: PAddr) -> u64 {
        self.space.read(self.thread, addr)
    }
    fn read_plain(&self, addr: PAddr) -> u64 {
        self.thread.read(addr)
    }
    fn help_cas(&self, addr: PAddr, expected: u64, new: u64) -> bool {
        self.space.cas_anonymous(self.thread, addr, expected, new)
    }
    fn init_word(&self, addr: PAddr, value: u64) {
        self.space.init_word(self.thread, addr, value)
    }
    fn write_plain(&self, addr: PAddr, value: u64) {
        self.thread.write(addr, value)
    }
    fn alloc(&self, nwords: u64) -> PAddr {
        self.thread.alloc(nwords)
    }
    fn flush_line(&self, addr: PAddr) {
        if self.durable {
            self.thread.flush(addr);
        }
    }
    fn fence(&self) {
        if self.durable {
            self.thread.fence();
        }
    }
}
