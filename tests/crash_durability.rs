//! Cross-crate integration test: durable linearizability and detectability under
//! full-system crashes and per-process crash injection, for every durable queue.

use capsules::BoundaryStyle;
use pmem::{install_quiet_crash_hook, CrashPolicy, MemConfig, Mode, PMem};
use queues::{Durability, GeneralQueue, LogQueue, NormalizedQueue, QueueHandle};
use romulus::RomulusQueue;
use std::collections::{BTreeSet, HashSet};
use structs::{GeneralDetMap, MapConfig, NormalizedDetMap, StructHandle, StructOp};

/// After a full-system crash, the durable state must contain every element whose
/// enqueue completed (the operation returned before the crash) and no duplicates.
fn check_durable_after_crash<F, H>(make: F)
where
    F: Fn(&PMem) -> H,
    H: FnOnce(&PMem, &[u64]) -> Vec<u64>,
{
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
    let values: Vec<u64> = (1..=64).collect();
    let drained = make(&mem)(&mem, &values);
    assert_eq!(drained, values, "completed enqueues must survive the crash in order");
}

#[test]
fn general_queue_is_durably_linearizable() {
    check_durable_after_crash(|mem| {
        let q = GeneralQueue::new(&mem.thread(0), 1, Durability::Manual, BoundaryStyle::General);
        move |mem: &PMem, values: &[u64]| {
            {
                let t = mem.thread(0);
                let mut h = q.handle(&t);
                for &v in values {
                    h.enqueue(v);
                }
            }
            mem.crash_all();
            let t = mem.thread(0);
            let mut h = q.attach_handle(&t);
            let mut out = Vec::new();
            while let Some(v) = h.dequeue() {
                out.push(v);
            }
            out
        }
    });
}

#[test]
fn normalized_queue_is_durably_linearizable() {
    check_durable_after_crash(|mem| {
        let q = NormalizedQueue::new(&mem.thread(0), 1, Durability::Manual, true);
        move |mem: &PMem, values: &[u64]| {
            {
                let t = mem.thread(0);
                let mut h = q.handle(&t);
                for &v in values {
                    h.enqueue(v);
                }
            }
            mem.crash_all();
            let t = mem.thread(0);
            let mut h = q.attach_handle(&t);
            let mut out = Vec::new();
            while let Some(v) = h.dequeue() {
                out.push(v);
            }
            out
        }
    });
}

#[test]
fn log_queue_is_durably_linearizable() {
    check_durable_after_crash(|mem| {
        let q = LogQueue::new(&mem.thread(0), 1);
        move |mem: &PMem, values: &[u64]| {
            {
                let t = mem.thread(0);
                let mut h = q.handle(&t);
                for &v in values {
                    h.enqueue(v);
                }
            }
            mem.crash_all();
            let t = mem.thread(0);
            let _ = q.recover(&t);
            let mut h = q.handle(&t);
            let mut out = Vec::new();
            while let Some(v) = h.dequeue() {
                out.push(v);
            }
            out
        }
    });
}

#[test]
fn romulus_queue_is_durably_linearizable() {
    check_durable_after_crash(|mem| {
        let q = RomulusQueue::new(&mem.thread(0), 256);
        move |mem: &PMem, values: &[u64]| {
            {
                let t = mem.thread(0);
                let mut h = q.handle(&t);
                for &v in values {
                    h.enqueue(v);
                }
            }
            mem.crash_all();
            let t = mem.thread(0);
            q.recover(&t);
            let mut h = q.handle(&t);
            let mut out = Vec::new();
            while let Some(v) = h.dequeue() {
                out.push(v);
            }
            out
        }
    });
}

/// Concurrent producers with per-process crash injection: after the dust settles,
/// no element is lost and none is duplicated (the exactly-once guarantee of the
/// transformations' detectability).
#[test]
fn concurrent_mixed_workload_with_crashes_is_exactly_once() {
    install_quiet_crash_hook();
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 400;
    for optimised in [false, true] {
        let mem = PMem::new(MemConfig::new(THREADS).mode(Mode::SharedCache));
        let q = NormalizedQueue::new(&mem.thread(0), THREADS, Durability::Manual, optimised);
        let popped: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let q = &q;
                    s.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = q.handle(&t);
                        t.set_crash_policy(CrashPolicy::Random {
                            prob: 0.003,
                            seed: 0xFEED + pid as u64,
                        });
                        let mut mine = Vec::new();
                        for i in 0..PER_THREAD {
                            h.enqueue((pid as u64) << 32 | i);
                            if i % 3 == 0 {
                                if let Some(v) = h.dequeue() {
                                    mine.push(v);
                                }
                            }
                        }
                        t.disarm_crashes();
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        let mut all: Vec<u64> = popped.into_iter().flatten().collect();
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate delivery (optimised={optimised})");
        assert_eq!(
            all.len(),
            THREADS * PER_THREAD as usize,
            "lost elements (optimised={optimised})"
        );
    }
}

/// Repeatedly crash the whole system at different instants during a single-threaded
/// run and verify the durable state is always a consistent prefix: dequeue order is
/// FIFO and every drained value had been enqueued by a completed operation.
#[test]
fn crash_at_every_phase_leaves_consistent_state() {
    install_quiet_crash_hook();
    for crash_after in [1u64, 3, 7, 15, 40, 90, 200] {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let q = GeneralQueue::new(&mem.thread(0), 1, Durability::Manual, BoundaryStyle::General);
        let mut completed = Vec::new();
        {
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            t.set_crash_policy(CrashPolicy::Countdown(crash_after * 10));
            for i in 1..=60u64 {
                // Crash injection may interrupt an operation; the capsule runtime
                // finishes it transparently, so if enqueue returns it completed.
                h.enqueue(i);
                completed.push(i);
                if t.stats().crashes > 0 {
                    break;
                }
            }
            t.disarm_crashes();
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = q.attach_handle(&t);
        let mut drained = Vec::new();
        while let Some(v) = h.dequeue() {
            drained.push(v);
        }
        // Every completed enqueue must be present, in order; at most one extra
        // element (an in-flight enqueue that became durable before the crash) may
        // follow.
        assert!(
            drained.len() >= completed.len() && drained.len() <= completed.len() + 1,
            "crash_after={crash_after}: {} completed but {} drained",
            completed.len(),
            drained.len()
        );
        assert_eq!(&drained[..completed.len()], &completed[..]);
    }
}

/// Two real client threads run `run(pid)` to completion on machine `mem`; the
/// whole system then crashes and a *new* machine boots over the surviving
/// arena — the restart check `dfbench` performs. Returns the clients' results
/// and the rebooted machine.
fn two_clients_then_restart<R: Send>(mem: PMem, run: impl Fn(&PMem, usize) -> R + Sync) -> (Vec<R>, PMem) {
    let results = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|pid| {
                let (mem, run) = (&mem, &run);
                s.spawn(move || run(mem, pid))
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    mem.crash_all();
    let rebooted = PMem::with_arena(MemConfig::new(2).mode(Mode::SharedCache), mem.arena_handle());
    (results, rebooted)
}

/// Everything two concurrent clients were told had happened must survive a
/// full-system crash. Nodes and bucket heads of *different* keys share cache
/// lines, so the two clients constantly flush one line for different words;
/// a write-back that can land a stale value over a newer durable one loses
/// acknowledged keys here (hundreds per run before `Word::write_back`).
#[test]
fn two_clients_acknowledged_ops_survive_crash_all() {
    const KEYS_PER_CLIENT: u64 = 60_000;
    // Each client inserts its own keys (odd / even) and removes every fourth
    // one again; all of these operations are acknowledged `true`.
    let keyed_stream = |pid: usize, h: &mut dyn StructHandle| -> BTreeSet<u64> {
        let mut kept = BTreeSet::new();
        for i in 0..KEYS_PER_CLIENT {
            let k = i * 2 + pid as u64;
            assert_eq!(h.apply(StructOp::Insert(k)), Some(1));
            if i % 4 == 3 {
                assert_eq!(h.apply(StructOp::Remove(k)), Some(1));
            } else {
                kept.insert(k);
            }
        }
        kept
    };
    let check_map = |label: &str, kept: Vec<BTreeSet<u64>>, len: usize, drained: structs::api::Drain| {
        let acknowledged: Vec<u64> = kept.into_iter().flatten().collect::<BTreeSet<_>>().into_iter().collect();
        assert!(!drained.truncated, "{label}");
        let lost = acknowledged.iter().filter(|k| drained.items.binary_search(k).is_err()).count();
        assert_eq!(lost, 0, "{label}: acknowledged keys lost across crash_all");
        assert_eq!(drained.items, acknowledged, "{label}");
        assert_eq!(len, acknowledged.len(), "{label}: len() after restart");
    };

    let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
    let map = GeneralDetMap::new(&mem.thread(0), 2, MapConfig::default(), true, BoundaryStyle::General);
    let (kept, mem) = two_clients_then_restart(mem, |mem, pid| {
        let t = mem.thread(pid);
        keyed_stream(pid, &mut map.handle(&t))
    });
    let t = mem.thread(0);
    check_map("GeneralDetMap", kept, map.len(&t), map.handle(&t).drain_up_to(usize::MAX));

    let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
    let map = NormalizedDetMap::new(&mem.thread(0), 2, MapConfig::default(), true, false);
    let (kept, mem) = two_clients_then_restart(mem, |mem, pid| {
        let t = mem.thread(pid);
        keyed_stream(pid, &mut map.handle(&t))
    });
    let t = mem.thread(0);
    check_map("NormalizedDetMap", kept, map.len(&t), map.handle(&t).drain_up_to(usize::MAX));

    // Pairs on the queue: what is left after the crash is exactly what was
    // enqueued and never handed to a dequeuer.
    let mem = PMem::new(MemConfig::new(2).mode(Mode::SharedCache));
    let q = GeneralQueue::new(&mem.thread(0), 2, Durability::Manual, BoundaryStyle::General);
    let (dequeued, mem) = two_clients_then_restart(mem, |mem, pid| {
        let t = mem.thread(pid);
        let mut h = q.handle(&t);
        let mut got = Vec::new();
        for i in 0..KEYS_PER_CLIENT {
            h.enqueue((pid as u64) << 32 | i);
            if i % 4 != 0 {
                got.extend(h.dequeue());
            }
        }
        got
    });
    let dequeued: HashSet<u64> = dequeued.into_iter().flatten().collect();
    let t = mem.thread(0);
    let left: Vec<u64> = q.handle(&t).drain();
    let left_set: HashSet<u64> = left.iter().copied().collect();
    assert_eq!(left_set.len(), left.len(), "GeneralQueue: duplicate after restart");
    assert!(left_set.is_disjoint(&dequeued), "GeneralQueue: a dequeued element came back");
    assert_eq!(
        left.len() + dequeued.len(),
        2 * KEYS_PER_CLIENT as usize,
        "GeneralQueue: acknowledged enqueues lost across crash_all"
    );
}
