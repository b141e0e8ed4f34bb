//! # `pmem` — a simulated Parallel Persistent Memory (PPM) machine
//!
//! This crate is the substrate on which every other crate in the workspace runs.
//! It simulates the memory model of *Delay-Free Concurrency on Faulty Persistent
//! Memory* (Ben-David, Blelloch, Friedman, Wei — SPAA 2019), §2.1:
//!
//! * a large **persistent shared memory** addressed in 64-bit words, accessed with
//!   `Read`, `Write` and `CAS` instructions,
//! * a small **volatile private memory** per process (ordinary Rust locals — they are
//!   simply lost when a simulated crash unwinds the thread),
//! * **crash events** that wipe a process's volatile state while leaving persistent
//!   memory intact, and a **restart pointer** per process from which execution resumes,
//! * two cache models:
//!   * the **private-cache model** (the paper's PPM model): every store to shared
//!     memory is immediately persistent, and
//!   * the **shared-cache model**: stores land in a (volatile) cache and only become
//!     persistent when the program issues an explicit [`flush`](PThread::flush) /
//!     [`fence`](PThread::fence), mirroring `clflushopt` + `sfence` on real hardware.
//!
//! Because no commodity machine lets a test harness yank power at a chosen
//! instruction, every persistent word keeps *two* values: the `current` (cached)
//! value and the `persisted` value. A flush copies current → persisted for a whole
//! 64-byte cache line; a simulated crash rolls every word back to its persisted
//! value. This is the substitution documented in `DESIGN.md`: it exposes exactly the
//! operations the paper's algorithms use, plus deterministic crash injection.
//!
//! ## Quick tour
//!
//! ```
//! use pmem::{PMem, MemConfig, Mode};
//!
//! // A 2-process machine using the shared-cache model.
//! let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
//! let t = mem.thread(0);
//!
//! // Allocate two persistent words and update them.
//! let a = t.alloc(2);
//! t.write(a, 41);
//! assert!(t.cas(a, 41, 42));
//! t.persist(a);                       // clflushopt + sfence
//! assert_eq!(t.read(a), 42);
//!
//! // A full-system crash rolls unflushed data back; `a` was persisted so it survives.
//! drop(t);
//! mem.crash_all();
//! let t = mem.thread(0);
//! assert_eq!(t.read(a), 42);
//! assert!(mem.take_crashed(0));       // the process observes that it crashed
//! ```
//!
//! ## Crash injection
//!
//! Each [`PThread`] carries a [`CrashPolicy`]. Every simulated instruction calls a
//! crash point; when the policy fires, the access panics with a [`CrashSignal`]
//! payload, which the capsule runtime (see the `capsules` crate) catches to emulate
//! the loss of volatile state followed by a restart from the last capsule boundary.
//! Whoever catches a crash hands it to [`PThread::apply_crash`], which applies the
//! machine's crash flavour ([`MemConfig::system_crashes`]: per-process by default,
//! full-system on request).
//!
//! ## Statistics
//!
//! Every thread handle counts reads, writes, CASes, flushes, fences and recovery
//! steps ([`Stats`]). The benchmark harness uses these to reproduce the paper's
//! flush-count arguments and the recovery-delay comparison.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod addr;
pub mod align;
pub mod arena;
pub mod crash;
pub mod hb;
pub mod mem;
pub mod mode;
pub mod sched;
pub mod stats;

pub use addr::PAddr;
pub use align::{CacheAligned, CACHE_LINE_BYTES};
pub use hb::HbAnalyzer;
pub use crash::{
    catch_crash, install_quiet_crash_hook, raise_crash, CrashPlan, CrashPolicy, CrashSchedule,
    CrashSignal, Crashed,
};
pub use mem::{MemConfig, PMem, PThread, ThreadOptions};
pub use mode::Mode;
pub use sched::{FinishGuard, SchedConfig, ThreadScheduler};
pub use stats::Stats;

/// Number of 64-bit words in a simulated cache line (64 bytes).
pub const LINE_WORDS: u64 = 8;

/// The null persistent address. Word 0 of the arena is reserved and never allocated,
/// so `PAddr::NULL` can be used as a sentinel pointer by data structures.
pub const NULL: PAddr = PAddr::NULL;
