//! The family's per-thread face as this crate uses it — the operation enum,
//! the handle trait, the bounded-drain result and the capsule-handle scaffold
//! are `delayfree::handle`'s, re-exported here under the paths callers know —
//! plus the two Normalized-construction helpers every structure here shares.

use capsules::BoundaryStyle;
use delayfree::{CasList, NormalizedSimulator, WrapUp};
use rcas::RcasSpace;

pub(crate) use delayfree::{adaptive_builders, capsule_handles};
pub(crate) use delayfree::handle::{apply_keyed, apply_stack, drain_by_pops};
pub use delayfree::{Capsuled, Drain, Handle, StructHandle, StructOp};

/// Encode a boolean operation result in the uniform word encoding.
pub(crate) fn bool_ret(b: bool) -> Option<u64> {
    Some(b as u64)
}

/// The §7 simulator as every Normalized structure here configures it: each
/// operation proposes at most one CAS, so CAS lists always travel inline in the
/// frame; `optimised` selects the compact (`-Opt`) frame style, `adaptive`
/// whether uncontended operations run as one fast capsule.
pub(crate) fn normalized_simulator(
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

/// One body per suite of the construction grid (single-thread semantics in
/// both styles, concurrent exactness, random crashes, full-system-crash
/// durability, exhaustive crash-point sweep), generic over the
/// capsule-transformed structure and driven through [`StructHandle`]; the
/// per-structure test modules call these with a constructor.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPlan, CrashPolicy, MemConfig, Mode, PMem, PThread};
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
    ) {
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
    ) {
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
    pub(crate) fn lifo_concurrent<S: Capsuled + Sync>(build: impl Fn(&PThread<'_>, usize) -> S) {
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
    pub(crate) fn keyed_contention<S: Capsuled + Sync>(build: impl Fn(&PThread<'_>, usize) -> S) {
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
    pub(crate) fn keyed_growth<S: Capsuled>(build: impl Fn(&PThread<'_>) -> S) {
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
    ) {
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
    ) {
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
    ) {
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

    /// Run `op` (after `prefill`, made durable) on a fresh structure with the
    /// incarnation *dying* at the operation's crash point `k`, apply the crash
    /// (`system`: full-system) and hand `inspect` the structure, the thread and
    /// a re-attached handle — its runtime sits at the persisted pc with
    /// `crashed()` raised, so the test sees the machine exactly as recovery
    /// finds it. `None` once `k` is past the operation's last crash point.
    pub(crate) fn die_at<S: Capsuled, R>(
        build: impl Fn(&PThread<'_>) -> S,
        system: bool,
        prefill: &[StructOp],
        op: StructOp,
        k: u64,
        inspect: impl FnOnce(&S, &PThread<'_>, &mut Handle<'_, '_, '_, S>) -> R,
    ) -> Option<R> {
        install_quiet_crash_hook();
        let mem = shared_cache(1);
        let t = mem.thread(0);
        let s = build(&t);
        let mut h = Handle::new(&s, &t);
        for &op in prefill {
            h.apply(op);
        }
        mem.persist_everything();
        h.runtime_mut().set_unwind_on_crash(true);
        t.set_crash_schedule(CrashPlan::once(k));
        let died = pmem::catch_crash(|| h.apply(op)).is_err();
        t.disarm_crashes();
        if !died {
            return None;
        }
        if system {
            mem.crash_all();
        } else {
            mem.crash_thread(0);
        }
        Some(inspect(&s, &t, &mut Handle::attach(&s, &t)))
    }

    /// Two scheduled pids (deterministic interleaving per `seed`) run their
    /// `ops(pid)` on one structure; returns each pid's capsule metrics and
    /// memory statistics over its operations, then the quiescent contents.
    pub(crate) fn scheduled_pair<S: Capsuled + Sync>(
        build: impl Fn(&PThread<'_>, usize) -> S,
        ops: impl Fn(u64) -> Vec<StructOp> + Sync,
        seed: u64,
    ) -> (Vec<(capsules::CapsuleMetrics, pmem::Stats)>, Drain) {
        let mem = shared_cache(2);
        let s = build(&mem.thread(0), 2);
        let sched = pmem::ThreadScheduler::new(pmem::SchedConfig::new(2, seed));
        let per_pid = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..2)
                .map(|pid| {
                    let (mem, s, sched, ops) = (&mem, &s, &sched, &ops);
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        t.set_thread_scheduler(std::sync::Arc::clone(sched));
                        let _guard = sched.finish_guard(pid);
                        let mut h = Handle::new(s, &t);
                        let before = t.stats();
                        for op in ops(pid as u64) {
                            h.apply(op);
                        }
                        let stats = t.stats().since(&before);
                        t.clear_thread_scheduler();
                        (h.runtime_mut().metrics(), stats)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        (per_pid, Handle::new(&s, &t).drain_up_to(10_000))
    }

    /// What a trip-1 demotion must leave behind on `pid`'s counters after
    /// `nodes`-allocating operations: the operation re-entered the slow
    /// machine (demotion boundary + at least the CAS capsule's, on top of
    /// entry + final) and built a second node — the fast one is abandoned.
    pub(crate) fn assert_demotions_reentered_the_slow_machine(
        (m, stats): &(capsules::CapsuleMetrics, pmem::Stats),
        node_words: u64,
    ) {
        assert!(m.boundaries >= 2 * m.operations + 2 * m.demotions, "{m:?}");
        assert!(stats.words_allocated >= node_words * (m.operations + m.demotions), "{m:?}");
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
    ) {
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
