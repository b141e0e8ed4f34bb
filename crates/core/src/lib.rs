//! # `delayfree` — delay-free persistent simulations
//!
//! This crate is the public face of the workspace's reproduction of *Delay-Free
//! Concurrency on Faulty Persistent Memory* (Ben-David, Blelloch, Friedman, Wei —
//! SPAA 2019). It packages the paper's three transformations as reusable simulators
//! on top of the `pmem`, `rcas` and `capsules` substrates:
//!
//! * [`ConstantDelaySimulator`] (§5) — single-instruction capsules: every simulated
//!   instruction is its own capsule, giving constant computation delay *and*
//!   constant recovery delay (Theorem 1.1 / 5.1).
//! * [`CasReadSimulator`] (§6) — the Low-Computation-Delay simulator: capsule
//!   boundaries only where required by the CAS-Read discipline (one CAS at the head
//!   of a capsule, reads afterwards), trading recovery delay for fewer boundaries.
//!   It owns the construction's flush discipline and capsule / helping CASes,
//!   and runs the same [`NormalizedOp`]s as §7 ([`Simulator`], [`CasFrame`]).
//! * [`NormalizedSimulator`] (§7, Algorithm 4) — for normalized lock-free data
//!   structures (CAS generator / CAS executor / wrap-up): one capsule boundary per
//!   iteration of the operation's retry loop.
//!
//! plus:
//!
//! * [`fast`] — the contention-adaptive fast capsule both simulators run an
//!   uncontended single-CAS operation as (one evidence-carrying CAS, no
//!   intermediate boundary),
//! * [`SharedMem`] — the one word-access face parallelizable code (searches,
//!   traversals, helping, resize machinery) is written over, so each structure's
//!   protocol exists once and its three constructions differ only in the face
//!   and the simulator they are given,
//! * [`StructHandle`] — the one per-thread face a driver sees ([`handle`]): one
//!   operation alphabet for every shape, and the [`Handle`] scaffold every
//!   capsule-transformed structure's handles are,
//! * [`delay`] — helpers for measuring computation delay and recovery delay against
//!   an un-transformed baseline (Definition 3.1/3.3),
//! * [`writes`] — the §8 story for shared writes: replace non-racy writes by a CAS,
//!   and use [`rcas::WritableCasArray`] (Algorithm 8) where a write genuinely races
//!   with a CAS.
//!
//! ## Which simulator do I use?
//!
//! | Simulator | Applies to | Computation delay | Recovery delay |
//! |---|---|---|---|
//! | `ConstantDelaySimulator` | any program (reads/CASes/writes) | constant, largest | constant |
//! | `CasReadSimulator` | any program (reads/CASes/writes) | smaller | one capsule |
//! | `NormalizedSimulator` | normalized data structures | smallest | one iteration |
//!
//! The `queues` crate contains complete worked examples: the Michael–Scott queue
//! transformed with the CAS-Read simulator ("General") and with the normalized
//! simulator ("Normalized"), exactly the variants evaluated in the paper's §10.
//!
//! ## Quick tour
//!
//! A fetch-and-add written as a normalized operation (generator → CAS executor →
//! wrap-up) and driven by the [`NormalizedSimulator`], which makes it persistent
//! and detectable with one capsule boundary per retry iteration:
//!
//! ```
//! use delayfree::prelude::*;
//!
//! struct FetchAdd { x: PAddr }
//!
//! impl NormalizedOp for FetchAdd {
//!     type Input = u64;   // amount to add
//!     type Output = u64;  // previous value
//!
//!     fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, add: &u64) -> CasList {
//!         let v = ctx.read(self.x);
//!         vec![CasDesc::new(self.x, v, v + add).with_aux(v)]
//!     }
//!
//!     fn wrap_up(
//!         &self,
//!         _ctx: &mut NormalizedCtx<'_, '_, '_>,
//!         _add: &u64,
//!         list: &CasList,
//!         executed: usize,
//!     ) -> WrapUp<u64> {
//!         if executed == list.len() { WrapUp::Done(list[0].aux) } else { WrapUp::Restart }
//!     }
//! }
//!
//! let mem = PMem::with_threads(1);
//! let t = mem.thread(0);
//! let space = RcasSpace::with_default_layout(&t, 1);
//! let op = FetchAdd { x: space.create(&t, 0).addr() };
//!
//! let sim = NormalizedSimulator::new(space, false);
//! let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
//! assert_eq!(sim.run(&mut rt, &op, &5), 0); // returns the old value...
//! assert_eq!(sim.run(&mut rt, &op, &2), 5); // ...exactly once, even across crashes
//! assert_eq!(space.read(&t, op.x), 7);
//! ```

#![warn(missing_docs)]

pub mod cas_read;
pub mod constant_delay;
pub mod delay;
pub mod fast;
pub mod handle;
pub mod mem;
pub mod normalized;
pub mod writes;

pub use cas_read::{CasFrame, CasReadSimulator};
pub use constant_delay::ConstantDelaySimulator;
pub use delay::{DelayReport, RecoveryProbe};
pub use handle::{
    general_simulator, normalized_simulator, Capsuled, Drain, Handle, Simulator, StructHandle,
    StructOp,
};
pub use mem::{RcasMem, SharedMem};
pub use normalized::{
    CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, PersistResult, WrapUp,
    NORMALIZED_INLINE_LOCALS, NORMALIZED_LOCALS,
};
pub use writes::write_as_cas;

/// Convenient re-exports of the substrate types most user code needs.
pub mod prelude {
    pub use crate::{
        write_as_cas, CasDesc, CasList, CasReadSimulator, ConstantDelaySimulator, NormalizedCtx,
        NormalizedOp, NormalizedSimulator, PersistResult, WrapUp, NORMALIZED_LOCALS,
    };
    pub use capsules::{recoverable_cas, BoundaryStyle, CapsuleRuntime, CapsuleStep};
    pub use pmem::{CrashPolicy, MemConfig, Mode, PAddr, PMem, PThread, Stats, ThreadOptions};
    pub use rcas::{check_recovery, RCas, RcasLayout, RcasSpace};
}
