//! The family's per-thread face as this crate uses it — the operation enum,
//! the handle trait, the bounded-drain result and the capsule-handle scaffold
//! are `delayfree::handle`'s, re-exported here under the paths callers know —
//! plus the wrap-up verdict every structure here shares.

use delayfree::{CasList, WrapUp};

pub(crate) use delayfree::handle::{apply_keyed, apply_stack, drain_by_pops};
pub(crate) use delayfree::{
    adaptive_builders, capsule_handles, general_simulator, normalized_simulator,
};
pub use delayfree::{Capsuled, Drain, Handle, StructHandle, StructOp};

/// Encode a boolean operation result in the uniform word encoding.
pub(crate) fn bool_ret(b: bool) -> Option<u64> {
    Some(b as u64)
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
    use capsules::CapsuleRuntime;
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
            assert_eq!(
                h.apply(Contains(k)),
                bool_ret(model.contains(&k)),
                "contains({k})"
            );
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
            assert_eq!(
                out, expect,
                "exactly-once despite crashes (style flag {flag})"
            );
            assert!(
                t.stats().crashes > 0,
                "the policy should have fired at least once"
            );
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

    /// Detect after return: `last` (a fast operation whose CAS takes effect)
    /// returns `last_out` with no final boundary, and the incarnation dies at
    /// each crash point of `next` — its entry boundary first — in both frame
    /// styles (`build`'s flag) and crash flavours. Where the re-attached
    /// frame still names `last`, `resume` must finish it from its evidence
    /// with `last_out` and leave its effect in place once, before `next`
    /// runs afresh; otherwise `next` is finished from its own frame. Either
    /// way `next` answers `expect.0` and the structure drains to `expect.1`.
    /// `resume(s, rt, op)` is `None` when the frame does not name `op`.
    pub(crate) fn resume_after_return<S: Capsuled>(
        build: impl Fn(&PThread<'_>, bool) -> S,
        prefill: &[StructOp],
        (last, last_out): (StructOp, Option<u64>),
        next: StructOp,
        resume: impl Fn(&S, &mut CapsuleRuntime<'_, '_>, StructOp) -> Option<Option<u64>>,
        expect: (Option<u64>, Vec<u64>),
    ) {
        let prefill: Vec<StructOp> = prefill.iter().copied().chain([last]).collect();
        for (compact, system) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut resumed_last = 0;
            for k in 0.. {
                let build = |t: &PThread<'_>| build(t, compact);
                let seen = die_at(build, system, &prefill, next, k, |s, _, h| {
                    let at = format!("compact={compact} system={system} k={k}");
                    let resumed = resume(s, h.runtime_mut(), last);
                    let got = match resumed {
                        Some(out) => {
                            assert_eq!(out, last_out, "{at}: {last:?} resumed");
                            h.apply(next)
                        }
                        None => resume(s, h.runtime_mut(), next).unwrap_or_else(|| h.apply(next)),
                    };
                    assert_eq!(got, expect.0, "{at}: {next:?}");
                    assert_eq!(h.drain_up_to(10_000).items, expect.1, "{at}");
                    resumed.is_some()
                });
                match seen {
                    None => break,
                    Some(resumed) => resumed_last += resumed as u32,
                }
            }
            assert!(resumed_last > 0, "compact={compact} system={system}");
        }
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
    /// machine and built a second node — the fast one is abandoned. Every
    /// operation pays its entry boundary; a fast one that took effect ends
    /// without a final boundary (the next entry boundary retires it), while
    /// a demoted one pays a demotion boundary, at least its CAS capsule's,
    /// and the slow machine's final boundary.
    pub(crate) fn assert_demotions_reentered_the_slow_machine(
        (m, stats): &(capsules::CapsuleMetrics, pmem::Stats),
        node_words: u64,
    ) {
        assert!(m.boundaries >= m.operations + 3 * m.demotions, "{m:?}");
        assert!(
            stats.words_allocated >= node_words * (m.operations + m.demotions),
            "{m:?}"
        );
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
        crash_point_sweep(build, prefill, script, expect, false);
    }

    /// [`exhaustive_crash_point_sweep`] across a restart: `prefill` runs to
    /// completion, nothing beyond what its operations made durable survives
    /// a full-system crash, and `script` runs on a handle re-attached
    /// through the restart pointer. The frame the handle finds may name a
    /// fast operation that returned with no final boundary, so its sequence
    /// number was never persisted: no operation of `script` may reuse it.
    pub(crate) fn crash_point_sweep_after_restart<S: Capsuled>(
        build: impl Fn(&PThread<'_>) -> S,
        prefill: &[StructOp],
        script: &[StructOp],
        expect: (Vec<Option<u64>>, Vec<u64>),
    ) {
        crash_point_sweep(build, prefill, script, expect, true);
    }

    fn crash_point_sweep<S: Capsuled>(
        build: impl Fn(&PThread<'_>) -> S,
        prefill: &[StructOp],
        script: &[StructOp],
        expect: (Vec<Option<u64>>, Vec<u64>),
        restart: bool,
    ) {
        install_quiet_crash_hook();
        type History = (Vec<Option<u64>>, Vec<u64>);
        let run = |plan: Option<CrashPlan>, system: bool| -> (History, u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache).system_crashes(system));
            let t = mem.thread(0);
            let s = build(&t);
            let mut h = Handle::new(&s, &t);
            for &op in prefill {
                assert_ne!(h.apply(op), Some(0));
            }
            if restart {
                mem.crash_all();
                h = Handle::attach(&s, &t);
            } else {
                mem.persist_everything();
            }
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
