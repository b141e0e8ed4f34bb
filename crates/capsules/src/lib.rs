//! # `capsules` — capsule boundaries and the per-process capsule runtime
//!
//! The paper's transformations (§2.3, §5, §6) split a program into *capsules*:
//! contiguous chunks of code separated by *capsule boundaries* at which the process
//! persists everything the rest of the execution needs — the program counter, the
//! live stack-allocated locals and the per-process sequence number. After a crash
//! the process restarts from the previous boundary and re-executes the interrupted
//! capsule; correctness (Definition 2.2) requires that the repetitions be invisible,
//! which the CAS-Read capsule discipline plus the recoverable CAS guarantee.
//!
//! This crate provides the machinery the paper assumes a compiler would emit:
//!
//! * [`Frame`] — the persistent stack frame: two copies of every persisted local
//!   plus a validity mask and the program counter packed into one atomically
//!   writable control word ([`BoundaryStyle::General`]), or the hand-optimised
//!   single-cache-line layout that needs only one flush and one fence per boundary
//!   ([`BoundaryStyle::Compact`], the §9 "all locals on one cache line" trick used by
//!   the `-Opt` queue variants),
//! * [`CapsuleRuntime`] — volatile mirrors of the persisted locals, sequence-number
//!   management, the `crashed()` protocol, boundary emission, recovery (reload the
//!   frame), and [`CapsuleRuntime::run_op`] — the driver loop that catches simulated
//!   crashes and restarts the interrupted capsule, standing in for the restart
//!   pointer + context reload of §2.1,
//! * [`cas_read`] — Algorithm 3: the recoverable CAS at the head of a CAS-Read
//!   capsule, wrapped so it is executed exactly once even across crashes.
//!
//! Everything is expressed against the simulated machine of the [`pmem`] crate, so
//! boundaries cost real (simulated) flushes and fences that show up in [`pmem::Stats`].
//!
//! ## Quick tour
//!
//! An encapsulated operation is a state machine over the persisted program counter;
//! [`CapsuleRuntime::run_op`] drives it to completion across any number of simulated
//! crashes. Here a sum is computed one addend per capsule while a deterministic
//! [`pmem::CrashPlan`] crashes the process mid-operation — and then once more inside
//! the recovery triggered by the first crash:
//!
//! ```
//! use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
//! use pmem::{CrashPlan, PMem};
//!
//! fn sum_to_ten(rt: &mut CapsuleRuntime<'_, '_>) -> u64 {
//!     rt.run_op(0, |rt| {
//!         let i = rt.pc() as u64;
//!         if i == 10 {
//!             return CapsuleStep::Done(rt.local(0));
//!         }
//!         let acc = rt.local(0);
//!         rt.set_local(0, acc + i + 1);
//!         rt.boundary(rt.pc() + 1);
//!         CapsuleStep::Continue
//!     })
//! }
//!
//! pmem::install_quiet_crash_hook();
//!
//! // Crash points are counted, never guessed: run once crash-free and read the
//! // operation's crash-point count from the thread's statistics.
//! let mem = PMem::with_threads(1);
//! let t = mem.thread(0);
//! let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
//! let _ = t.take_stats();
//! assert_eq!(sum_to_ten(&mut rt), 55);
//! let points = t.stats().crash_points;
//!
//! // Replay on a fresh machine, crashing mid-operation and then again at the
//! // very first instruction of the resulting recovery (a nested schedule).
//! let mem = PMem::with_threads(1);
//! let t = mem.thread(0);
//! let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 1);
//! t.set_crash_schedule(CrashPlan::new(vec![points / 2, 0]));
//! let total = sum_to_ten(&mut rt);
//! t.disarm_crashes();
//!
//! assert_eq!(total, 55);                       // 1 + 2 + … + 10, exactly once
//! assert!(rt.metrics().recoveries >= 1);       // the capsule was re-executed…
//! assert!(rt.metrics().recovery_crashes >= 1); // …and recovery itself was interrupted
//! ```

#![warn(missing_docs)]

pub mod cas_read;
pub mod contention;
pub mod frame;
pub mod runtime;

pub use cas_read::recoverable_cas;
pub use contention::ContentionMeasure;
pub use frame::{BoundaryStyle, Frame};
pub use runtime::{CapsuleMetrics, CapsuleRuntime, CapsuleStep};
