//! The uniform face of every structure variant: one operation enum, one handle
//! trait, the bounded quiescent drain hook the sweeper's oracles rely on, and
//! the capsule-handle scaffold the six transformed structures share.

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{CasList, NormalizedSimulator, WrapUp};
use pmem::PThread;
use rcas::RcasSpace;

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

/// [`StructHandle::apply`] of every set- and map-shaped handle: decode the
/// keyed operation and call the handle's own method.
pub(crate) fn apply_keyed<H>(
    h: &mut H,
    op: StructOp,
    insert: fn(&mut H, u64) -> bool,
    remove: fn(&mut H, u64) -> bool,
    contains: fn(&mut H, u64) -> bool,
) -> Option<u64> {
    match op {
        StructOp::Insert(k) => bool_ret(insert(h, k)),
        StructOp::Remove(k) => bool_ret(remove(h, k)),
        StructOp::Contains(k) => bool_ret(contains(h, k)),
        other => panic!("keyed handle cannot apply stack operation {other:?}"),
    }
}

/// [`StructHandle::apply`] of every stack handle.
pub(crate) fn apply_stack<H>(
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
        other => panic!("stack handle cannot apply keyed operation {other:?}"),
    }
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

/// The §7 simulator as every Normalized structure here configures it: each
/// operation proposes at most one CAS, so CAS lists always travel inline in the
/// frame; `optimised` selects the compact (`-Opt`) frame style.
pub(crate) fn normalized_simulator(
    space: RcasSpace,
    manual: bool,
    optimised: bool,
) -> NormalizedSimulator {
    NormalizedSimulator::new(space, manual)
        .with_style(BoundaryStyle::opt(optimised))
        .with_inline_lists()
}

/// Wrap-up verdict of a boolean operation with at most one linearizing CAS:
/// an empty list means the generator already knew the answer is `false`, an
/// executed CAS means `true`, a lost one restarts the operation.
pub(crate) fn single_cas_outcome(cas_list: &CasList, executed: usize) -> WrapUp<bool> {
    if cas_list.is_empty() {
        WrapUp::Done(false)
    } else if executed == cas_list.len() {
        WrapUp::Done(true)
    } else {
        WrapUp::Restart
    }
}

/// What the handle scaffold needs to know about a capsule-transformed
/// structure (the style lives in the structure's simulator).
pub trait Capsuled {
    /// User locals a handle's capsule runtime persists.
    const LOCALS: usize;
    /// Frame layout of the handles.
    fn style(&self) -> BoundaryStyle;
}

/// Per-thread handle of a capsule-transformed structure: the thread's capsule
/// runtime plus a reference to the shared part. The six `General*Handle` /
/// `Normalized*Handle` names are this type; their operations are inherent
/// methods in each structure's module.
pub struct Handle<'q, 't, 'm, S> {
    pub(crate) shared: &'q S,
    pub(crate) rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm, S: Capsuled> Handle<'q, 't, 'm, S> {
    /// A handle over a freshly allocated capsule frame.
    pub(crate) fn new(shared: &'q S, thread: &'t PThread<'m>) -> Self {
        let rt = CapsuleRuntime::new(thread, shared.style(), S::LOCALS);
        Handle { shared, rt }
    }

    /// A handle resuming from the process's restart pointer (the frame it
    /// published before the crash).
    pub(crate) fn attach(shared: &'q S, thread: &'t PThread<'m>) -> Self {
        let rt = CapsuleRuntime::attach_from_restart_pointer(thread, shared.style(), S::LOCALS);
        Handle { shared, rt }
    }

    /// Access the underlying capsule runtime (metrics, crash flavour…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// See [`CapsuleRuntime::set_entry_boundary`].
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }
}

/// Give a capsule-transformed structure its handle type and the two inherent
/// constructors every caller uses.
macro_rules! capsule_handles {
    ($shared:ident, $handle:ident) => {
        #[doc = concat!("Per-thread handle of a [`", stringify!($shared), "`].")]
        pub type $handle<'q, 't, 'm> = $crate::api::Handle<'q, 't, 'm, $shared>;

        impl $shared {
            /// Create the calling thread's handle (allocating its capsule frame).
            pub fn handle<'q, 't, 'm>(
                &'q self,
                thread: &'t pmem::PThread<'m>,
            ) -> $handle<'q, 't, 'm> {
                $crate::api::Handle::new(self, thread)
            }

            /// Re-attach a handle after a restart (resumes from the restart
            /// pointer).
            pub fn attach_handle<'q, 't, 'm>(
                &'q self,
                thread: &'t pmem::PThread<'m>,
            ) -> $handle<'q, 't, 'm> {
                $crate::api::Handle::attach(self, thread)
            }
        }
    };
}
pub(crate) use capsule_handles;

/// One body per suite of the construction grid (single-thread semantics in
/// both styles, concurrent exactness, random crashes, full-system-crash
/// durability, exhaustive crash-point sweep), generic over the
/// capsule-transformed structure and driven through [`StructHandle`]; the
/// per-structure test modules call these with a constructor.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPlan, CrashPolicy, MemConfig, Mode, PMem};
    use std::collections::{BTreeSet, HashSet};
    use StructOp::{Contains, Insert, Pop, Push, Remove};

    fn shared_cache(threads: usize) -> PMem {
        PMem::new(MemConfig::new(threads).mode(Mode::SharedCache))
    }

    /// LIFO semantics on one thread, for both values of the constructor's
    /// style flag.
    pub(crate) fn lifo_single_thread<S: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> S,
        len: fn(&S, &PThread<'_>) -> usize,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        for flag in [false, true] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let s = build(&t, flag);
            let mut h = Handle::new(&s, &t);
            assert_eq!(h.apply(Pop), None);
            for i in 1..=200 {
                h.apply(Push(i));
            }
            assert_eq!(len(&s, &t), 200);
            for i in (1..=200).rev() {
                assert_eq!(h.apply(Pop), Some(i), "style flag {flag}");
            }
            assert_eq!(h.apply(Pop), None);
        }
    }

    /// Set semantics on one thread, for both values of the style flag.
    pub(crate) fn keyed_single_thread<S: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> S,
        len: fn(&S, &PThread<'_>) -> usize,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        for flag in [false, true] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let s = build(&t, flag);
            let mut h = Handle::new(&s, &t);
            assert_eq!(h.apply(Insert(5)), Some(1));
            assert_eq!(h.apply(Insert(3)), Some(1));
            assert_eq!(h.apply(Insert(5)), Some(0), "style flag {flag}");
            assert_eq!(h.apply(Contains(3)), Some(1));
            assert_eq!(h.apply(Contains(4)), Some(0));
            assert_eq!(h.apply(Remove(3)), Some(1));
            assert_eq!(h.apply(Remove(3)), Some(0));
            assert_eq!(h.drain_up_to(16).items, vec![5], "style flag {flag}");
            assert_eq!(len(&s, &t), 1);
        }
    }

    /// Four threads push and pop concurrently: nothing lost, nothing doubled.
    pub(crate) fn lifo_concurrent<S: Capsuled + Sync>(build: impl Fn(&PThread<'_>, usize) -> S)
    where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 1_500;
        let mem = PMem::with_threads(THREADS);
        let s = build(&mem.thread(0), THREADS);
        let results: Vec<Vec<u64>> = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let (mem, s) = (&mem, &s);
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = Handle::new(s, &t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.apply(Push((pid as u64) << 32 | i));
                            popped.extend(h.apply(Pop));
                        }
                        popped
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        let mut h = Handle::new(&s, &t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.apply(Pop) {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    /// Three threads insert and remove the same five keys: every successful
    /// insert is matched by a successful remove or survives.
    pub(crate) fn keyed_contention<S: Capsuled + Sync>(build: impl Fn(&PThread<'_>, usize) -> S)
    where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        const THREADS: usize = 3;
        const ROUNDS: u64 = 250;
        let mem = PMem::with_threads(THREADS);
        let s = build(&mem.thread(0), THREADS);
        let counts: Vec<(u64, u64)> = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let (mem, s) = (&mem, &s);
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = Handle::new(s, &t);
                        let (mut ins, mut rem) = (0, 0);
                        for r in 0..ROUNDS {
                            let k = r % 5;
                            ins += h.apply(Insert(k)).unwrap();
                            rem += h.apply(Remove(k)).unwrap();
                        }
                        (ins, rem)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let total_ins: u64 = counts.iter().map(|c| c.0).sum();
        let total_rem: u64 = counts.iter().map(|c| c.1).sum();
        let t = mem.thread(0);
        let left = Handle::new(&s, &t).drain_up_to(1_000_000);
        assert!(!left.truncated);
        assert_eq!(total_ins, total_rem + left.items.len() as u64);
    }

    /// 120 inserts (every fourth key removed again) against a model: with a
    /// small map configuration this crosses several resizes and purges.
    pub(crate) fn keyed_growth<S: Capsuled>(build: impl Fn(&PThread<'_>) -> S)
    where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let s = build(&t);
        let mut h = Handle::new(&s, &t);
        let mut model = BTreeSet::new();
        for k in 0..120u64 {
            assert_eq!(h.apply(Insert(k)), Some(1));
            model.insert(k);
            if k % 4 == 1 {
                assert_eq!(h.apply(Remove(k)), Some(1));
                model.remove(&k);
            }
        }
        for k in 0..120u64 {
            assert_eq!(h.apply(Contains(k)), bool_ret(model.contains(&k)), "contains({k})");
        }
        let d = h.drain_up_to(100_000);
        assert!(!d.truncated);
        assert_eq!(d.items, model.iter().copied().collect::<Vec<u64>>());
    }

    /// 300 pushes then a full drain under random crash injection, for each
    /// listed style flag: exactly-once, in LIFO order.
    pub(crate) fn lifo_random_crashes<S: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> S,
        flags: &[bool],
        seed: u64,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        install_quiet_crash_hook();
        for &flag in flags {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let s = build(&t, flag);
            let mut h = Handle::new(&s, &t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed });
            for i in 1..=300u64 {
                h.apply(Push(i));
            }
            let mut out = Vec::new();
            while let Some(v) = h.apply(Pop) {
                out.push(v);
            }
            t.disarm_crashes();
            let expect: Vec<u64> = (1..=300).rev().collect();
            assert_eq!(out, expect, "exactly-once despite crashes (style flag {flag})");
            assert!(t.stats().crashes > 0, "the policy should have fired at least once");
        }
    }

    /// A model-checked insert/remove stream (`rounds` operations on keys
    /// `(r * stride) % modulus`, every third a remove) under random crash
    /// injection, for each listed style flag.
    pub(crate) fn keyed_random_crashes<S: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> S,
        flags: &[bool],
        seed: u64,
        (rounds, stride, modulus): (u64, u64, u64),
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        install_quiet_crash_hook();
        for &flag in flags {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let s = build(&t, flag);
            let mut h = Handle::new(&s, &t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed });
            let mut model = BTreeSet::new();
            for r in 0..rounds {
                let k = (r * stride) % modulus;
                let (got, want) = if r % 3 == 2 {
                    (h.apply(Remove(k)), model.remove(&k))
                } else {
                    (h.apply(Insert(k)), model.insert(k))
                };
                assert_eq!(got, bool_ret(want), "style flag {flag} round {r} key {k}");
            }
            t.disarm_crashes();
            assert!(t.stats().crashes > 0);
            let d = h.drain_up_to(100_000);
            assert!(!d.truncated);
            assert_eq!(d.items, model.iter().copied().collect::<Vec<u64>>());
        }
    }

    /// Run `ops` to completion (all acknowledged), crash the whole system, come
    /// back — through the restart pointer when `attach` — and drain `expect`.
    pub(crate) fn survives_full_system_crash<S: Capsuled>(
        build: impl Fn(&PThread<'_>) -> S,
        ops: &[StructOp],
        expect: &[u64],
        attach: bool,
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        let mem = shared_cache(1);
        let s = build(&mem.thread(0));
        {
            let t = mem.thread(0);
            let mut h = Handle::new(&s, &t);
            for &op in ops {
                assert_ne!(h.apply(op), Some(0), "{op:?} must be acknowledged");
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = if attach {
            Handle::attach(&s, &t)
        } else {
            Handle::new(&s, &t)
        };
        let d = h.drain_up_to(10_000);
        assert!(!d.truncated);
        assert_eq!(d.items, expect);
    }

    /// dfck-style exhaustive enumeration at the crate level: every crash point
    /// of `script` (run after `prefill` was made durable), single and nested
    /// `[k, 0]` schedules, under per-process *and* full-system crash
    /// semantics. Every replay must return `expect.0` and leave `expect.1`.
    pub(crate) fn exhaustive_crash_point_sweep<S: Capsuled>(
        build: impl Fn(&PThread<'_>) -> S,
        prefill: &[StructOp],
        script: &[StructOp],
        expect: (Vec<Option<u64>>, Vec<u64>),
    ) where
        for<'q, 't, 'm> Handle<'q, 't, 'm, S>: StructHandle,
    {
        install_quiet_crash_hook();
        type History = (Vec<Option<u64>>, Vec<u64>);
        let run = |plan: Option<CrashPlan>, system: bool| -> (History, u64, u64) {
            let mem = shared_cache(1);
            let t = mem.thread(0);
            let s = build(&t);
            let mut h = Handle::new(&s, &t);
            h.runtime_mut().set_system_crashes(system);
            for &op in prefill {
                assert_ne!(h.apply(op), Some(0));
            }
            mem.persist_everything();
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            let rets = script.iter().map(|&op| h.apply(op)).collect();
            let points = t.stats().crash_points;
            t.disarm_crashes();
            let drained = h.drain_up_to(10_000);
            assert!(!drained.truncated);
            let recovery_crashes = h.runtime_mut().metrics().recovery_crashes;
            ((rets, drained.items), points, recovery_crashes)
        };
        for system in [false, true] {
            let (base, n, _) = run(None, system);
            assert_eq!(base, expect);
            assert!(n > 0);
            let mut nested_recovery_crashes = 0;
            for k in 0..n {
                let (hist, _, _) = run(Some(CrashPlan::once(k)), system);
                assert_eq!(hist, base, "system={system} crash at point {k}");
                let (hist, _, rc) = run(Some(CrashPlan::nested(k, &[0])), system);
                assert_eq!(hist, base, "system={system} nested crash at point {k}");
                nested_recovery_crashes += rc;
            }
            assert!(
                nested_recovery_crashes > 0,
                "the nested sweep must interrupt at least one recovery (system={system})"
            );
        }
    }
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
