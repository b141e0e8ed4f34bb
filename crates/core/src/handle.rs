//! The per-thread face of the structure family.
//!
//! [`SharedMem`](crate::SharedMem) is how a structure's parallelizable code sees
//! memory; this module is how a *driver* sees a structure: one operation
//! alphabet ([`StructOp`]), one handle trait ([`StructHandle`]) that every
//! variant of every shape implements — queues read `Push`/`Pop` as
//! enqueue/dequeue — and, for the capsule-transformed variants, the one
//! [`Handle`] scaffold that pairs the shared structure ([`Capsuled`]) with the
//! thread's capsule runtime. A harness that can drive a `dyn StructHandle` can
//! test and time the whole family; what differs between handles with and
//! without a capsule runtime is said by the trait itself
//! ([`StructHandle::capsule_metrics`] and friends), not by a second trait.

use capsules::{BoundaryStyle, CapsuleMetrics, CapsuleRuntime, ContentionMeasure};
use pmem::PThread;
use rcas::RcasSpace;

use crate::{CasReadSimulator, NormalizedOp, NormalizedSimulator, RcasMem};

/// One operation of the structure family.
///
/// Queue and stack handles accept `Push`/`Pop`; set and map handles accept
/// `Insert`/`Remove`/`Contains`. Applying an operation of the wrong shape is a
/// driver bug and panics (the `bench::dfck` workloads are shape-homogeneous by
/// construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructOp {
    /// Enqueue this value / push it onto the stack.
    Push(u64),
    /// Dequeue / pop the top of the stack.
    Pop,
    /// Insert this key into the set (returns whether it was absent).
    Insert(u64),
    /// Remove this key from the set (returns whether it was present).
    Remove(u64),
    /// Membership test (returns whether the key is present).
    Contains(u64),
}

impl StructOp {
    /// The key of a set/map operation; panics on `Push`/`Pop`.
    pub fn key(self) -> u64 {
        match self {
            StructOp::Insert(k) | StructOp::Remove(k) | StructOp::Contains(k) => k,
            other => panic!("keyed handle cannot apply stack operation {other:?}"),
        }
    }
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
    /// The drained history (FIFO order for queues, top-down for stacks,
    /// ascending keys for sets).
    pub items: Vec<u64>,
    /// The walk stopped at the bound, not at the structure's end.
    pub truncated: bool,
}

/// The uniform per-thread handle every variant of every shape implements.
///
/// A handle is per-thread (it owns the thread's capsule runtime where the
/// variant has one) and must only be used by the thread that created it.
pub trait StructHandle {
    /// Apply one operation, with the results word-encoded uniformly so one
    /// driver can replay any shape:
    ///
    /// * `Push` → `None`,
    /// * `Pop` → the removed value (or `None` on an empty structure),
    /// * `Insert` / `Remove` / `Contains` → `Some(1)` for *true*, `Some(0)`
    ///   for *false*.
    fn apply(&mut self, op: StructOp) -> Option<u64>;

    /// The quiescent history hook: read off (and, for queues and stacks,
    /// remove) the structure's remaining contents — FIFO order for queues,
    /// top-down for stacks, ascending key order for sets — visiting at most
    /// `max` elements (queues, stacks) or chain nodes (sets).
    ///
    /// The bound exists because an unbounded drain trusts the next-pointer
    /// chain to be acyclic: a recovery bug that splices a node behind itself
    /// must surface as a [`Drain`] with `truncated` set (an oracle violation
    /// carrying the offending crash schedule), not as a sweep that never
    /// terminates. Quiescent use only.
    fn drain_up_to(&mut self, max: usize) -> Drain;

    /// The recovery counters so far of a handle that absorbs crashes itself:
    /// a capsule handle's runtime metrics, or the LogQueue's protocol counts
    /// (`recoveries`, `recovery_crashes`). `None` for a handle whose crashes
    /// unwind to its driver (the untransformed and Izraelevitz programs).
    /// Either way the crash flavour is the machine's
    /// ([`pmem::MemConfig::system_crashes`]).
    fn capsule_metrics(&mut self) -> Option<CapsuleMetrics> {
        None
    }

    /// Persist (the default) or elide the per-operation entry and final
    /// boundaries. The paper's §10 measurements elide both because they are
    /// identical for every variant under test; crash-recovery code keeps them.
    /// A no-op without a runtime.
    fn set_op_boundaries(&mut self, _enabled: bool) {}
}

/// [`StructHandle::apply`] of a queue or stack handle without a capsule
/// runtime, given its two operations.
pub fn apply_stack<H>(
    h: &mut H,
    op: StructOp,
    push: fn(&mut H, u64),
    pop: fn(&mut H) -> Option<u64>,
) -> Option<u64> {
    match op {
        StructOp::Push(v) => {
            push(h, v);
            None
        }
        StructOp::Pop => pop(h),
        other => panic!("queue/stack handle cannot apply keyed operation {other:?}"),
    }
}

/// [`StructHandle::apply`] of a set or map handle without a capsule runtime,
/// given its three operations.
pub fn apply_keyed<H>(
    h: &mut H,
    op: StructOp,
    insert: fn(&mut H, u64) -> bool,
    remove: fn(&mut H, u64) -> bool,
    contains: fn(&mut H, u64) -> bool,
) -> Option<u64> {
    let k = op.key();
    Some(match op {
        StructOp::Insert(_) => insert(h, k),
        StructOp::Remove(_) => remove(h, k),
        _ => contains(h, k),
    } as u64)
}

/// The bounded drain of queues and stacks: pop until empty or until `max`
/// pops. `truncated` means the cap is what stopped the walk (the structure
/// *may* hold more; oracle callers pass a cap strictly above any legitimate
/// element count, so truncation there proves an over-long chain).
pub fn drain_by_pops(max: usize, mut pop: impl FnMut() -> Option<u64>) -> Drain {
    let mut items = Vec::new();
    while items.len() < max {
        match pop() {
            Some(v) => items.push(v),
            None => {
                return Drain {
                    items,
                    truncated: false,
                }
            }
        }
    }
    Drain {
        items,
        truncated: max > 0,
    }
}

/// The construction a capsule-transformed structure runs under — the §6
/// [`CasReadSimulator`](crate::CasReadSimulator) or the §7
/// [`NormalizedSimulator`](crate::NormalizedSimulator) — so a structure is
/// written once, generic over it, each operation a [`NormalizedOp`].
pub trait Simulator: Copy {
    /// User locals the simulator's own frame layout needs; `None` when the
    /// operations' [`CasFrame`](crate::CasFrame)s decide.
    const LOCALS: Option<usize>;
    /// Run `op` to completion on `rt`: exactly once under any crash schedule.
    fn run<O: NormalizedOp>(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        op: &O,
        input: &O::Input,
    ) -> O::Output;
    /// The [`SharedMem`](crate::SharedMem) face for parallelizable code run on
    /// `thread` on the simulator's behalf, and for quiescent walks.
    fn mem<'a, 't, 'm>(&'a self, thread: &'t PThread<'m>) -> RcasMem<'a, 't, 'm>;
    /// The recoverable-CAS space of the structure's CASes.
    fn space(&self) -> &RcasSpace;
    /// The frame layout of handles.
    fn style(&self) -> BoundaryStyle;
    /// The contention-policy template copied into every handle's runtime.
    fn contention(&self) -> ContentionMeasure;
}

/// The §6 simulator as every General structure configures it: `manual`
/// selects the hand-placed flush discipline, `style` the frame layout (the
/// `-Opt` style is [`BoundaryStyle::Compact`]), `adaptive` whether
/// uncontended operations run as one fast capsule.
pub fn general_simulator(
    space: RcasSpace,
    manual: bool,
    style: BoundaryStyle,
    adaptive: bool,
) -> CasReadSimulator {
    CasReadSimulator::new(space)
        .with_durable(manual)
        .with_style(style)
        .with_adaptive(adaptive)
}

/// The §7 simulator as every Normalized structure configures it: each
/// operation proposes at most one CAS, so CAS lists always travel inline in
/// the frame; `optimised` selects the compact (`-Opt`) frame style, `adaptive`
/// whether uncontended operations run as one fast capsule.
pub fn normalized_simulator(
    space: RcasSpace,
    manual: bool,
    optimised: bool,
    adaptive: bool,
) -> NormalizedSimulator {
    NormalizedSimulator::new(space, manual)
        .with_style(BoundaryStyle::opt(optimised))
        .with_inline_lists()
        .with_adaptive(adaptive)
}

/// A capsule-transformed structure: what the [`Handle`] scaffold needs to know
/// to run its operations on a thread's capsule runtime. Frame layout and
/// contention policy live in the structure's simulator.
pub trait Capsuled {
    /// User locals a handle's capsule runtime persists, unless the simulator's
    /// own frame layout decides ([`Simulator::LOCALS`]).
    const LOCALS: usize;
    /// The construction the structure runs under.
    type Sim: Simulator;
    /// The structure's simulator.
    fn sim(&self) -> &Self::Sim;
    /// Run one operation to completion on `rt` ([`StructHandle::apply`]'s
    /// encoding): exactly-once under any crash schedule.
    fn apply(&self, rt: &mut CapsuleRuntime<'_, '_>, op: StructOp) -> Option<u64>;
    /// [`StructHandle::drain_up_to`]; the default pops, which is the drain of
    /// queues and stacks.
    fn drain_up_to(&self, rt: &mut CapsuleRuntime<'_, '_>, max: usize) -> Drain {
        drain_by_pops(max, || self.apply(rt, StructOp::Pop))
    }
}

/// Per-thread handle of a capsule-transformed structure: the thread's capsule
/// runtime plus a reference to the shared part. Every `General*Handle` /
/// `Normalized*Handle` name in `queues` and `structs` is this type.
pub struct Handle<'s, 't, 'm, S> {
    shared: &'s S,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'s, 't, 'm, S: Capsuled> Handle<'s, 't, 'm, S> {
    fn over(shared: &'s S, mut rt: CapsuleRuntime<'t, 'm>) -> Self {
        rt.set_contention(shared.sim().contention());
        Handle { shared, rt }
    }

    const LOCALS: usize = match <S::Sim as Simulator>::LOCALS {
        Some(n) => n,
        None => S::LOCALS,
    };

    /// A handle over a freshly allocated capsule frame. The process may have
    /// run operations before a restart, through a frame this one replaces: the
    /// new frame starts at the last sequence number it announced
    /// ([`CapsuleRuntime::new_after`]), so no earlier operation's evidence can
    /// pass for a later one's.
    pub fn new(shared: &'s S, thread: &'t PThread<'m>) -> Self {
        let (style, announced) = (shared.sim().style(), Self::announced(shared, thread));
        let rt = CapsuleRuntime::new_after(thread, style, Self::LOCALS, announced);
        Self::over(shared, rt)
    }

    /// The last sequence number `thread`'s process announced on `shared`.
    fn announced(shared: &S, thread: &PThread<'_>) -> u64 {
        shared.sim().space().announcement(thread).seq
    }

    /// A handle resuming from the process's restart pointer (the frame it
    /// published before the crash). Recovery is constant work: reload the
    /// frame, read the last sequence number the process announced, and the
    /// first capsule re-executed consults the recoverable CAS. The frame may
    /// name a fast operation that returned with no final boundary, its
    /// sequence number never persisted: the next operation starts past the
    /// announced one ([`CapsuleRuntime::sync_seq_at_next_entry`]).
    pub fn attach(shared: &'s S, thread: &'t PThread<'m>) -> Self {
        let style = shared.sim().style();
        let mut rt = CapsuleRuntime::attach_from_restart_pointer(thread, style, Self::LOCALS);
        thread.begin_recovery();
        let announced = Self::announced(shared, thread);
        thread.end_recovery();
        rt.sync_seq_at_next_entry(announced);
        Self::over(shared, rt)
    }

    /// The shared structure this handle operates on.
    pub fn shared(&self) -> &'s S {
        self.shared
    }

    /// Access the underlying capsule runtime (metrics, unwinding…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// See [`CapsuleRuntime::set_entry_boundary`].
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }
}

impl<S: Capsuled> StructHandle for Handle<'_, '_, '_, S> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        self.shared.apply(&mut self.rt, op)
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        self.shared.drain_up_to(&mut self.rt, max)
    }

    fn capsule_metrics(&mut self) -> Option<CapsuleMetrics> {
        Some(self.rt.metrics())
    }

    fn set_op_boundaries(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
        self.rt.set_final_boundary(enabled);
    }
}

/// Give a capsule-transformed structure its handle type and the two inherent
/// constructors every caller uses.
#[macro_export]
macro_rules! capsule_handles {
    ($shared:ident, $handle:ident) => {
        #[doc = concat!("Per-thread handle of a [`", stringify!($shared), "`].")]
        pub type $handle<'s, 't, 'm> = $crate::Handle<'s, 't, 'm, $shared>;

        impl $shared {
            /// Create the calling thread's handle (allocating its capsule frame).
            pub fn handle<'s, 't, 'm>(
                &'s self,
                thread: &'t pmem::PThread<'m>,
            ) -> $handle<'s, 't, 'm> {
                $crate::Handle::new(self, thread)
            }

            /// Re-attach a handle after a restart, resuming from the process's
            /// restart pointer.
            pub fn attach_handle<'s, 't, 'm>(
                &'s self,
                thread: &'t pmem::PThread<'m>,
            ) -> $handle<'s, 't, 'm> {
                $crate::Handle::attach(self, thread)
            }
        }
    };
}

/// Give a capsule-transformed structure that keeps its simulator in a `sim`
/// field the two builders of the contention-adaptive fast path.
#[macro_export]
macro_rules! adaptive_builders {
    ($shared:ident) => {
        impl $shared {
            /// Turn the contention-adaptive fast path off (or back on; it is on
            /// by default): the `dfck` slow-path rows and the tests that
            /// compare the simulators pin operations to the full state machine.
            pub fn with_adaptive(mut self, adaptive: bool) -> Self {
                self.sim = self.sim.with_adaptive(adaptive);
                self
            }

            /// Override the contention policy handles start with (the
            /// sensitized `dfck` sweeps lower the trip threshold to 1 so any
            /// lost fast-path CAS deterministically exercises the fast→slow
            /// demotion boundary).
            pub fn with_contention(mut self, policy: capsules::ContentionMeasure) -> Self {
                self.sim = self.sim.with_contention(policy);
                self
            }
        }
    };
}
