//! The passes every structure workload runs: the timed pass with its
//! conservation and restart checks, the deterministic count pass, the faulty
//! pass and the per-operation latency pass.

use std::collections::HashSet;
use std::sync::Barrier;
use std::time::Instant;

use capsules::CapsuleMetrics;
use pmem::{CrashPolicy, MemConfig, Mode, PMem, Stats};
use structs::StructOp;

use crate::structures::{build, set_up, Boundaries, Built, Construction, Handle, THREAD_OPTIONS};
use crate::util::quantile_ns;
use crate::workloads::{Mix, Model, ModelFault, Spec};

/// The change in element count one operation caused.
#[inline]
fn net_effect(op: StructOp, ret: Option<u64>) -> i64 {
    match op {
        StructOp::Push(_) => 1,
        StructOp::Pop => -(ret.is_some() as i64),
        StructOp::Insert(_) => (ret == Some(1)) as i64,
        StructOp::Remove(_) => -((ret == Some(1)) as i64),
        StructOp::Contains(_) => 0,
    }
}

/// One timed repetition.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    /// Construct + prefill + `persist_everything`.
    pub setup_s: f64,
    /// Total operations ÷ the slowest client's elapsed time, in millions/s.
    pub mops: f64,
    pub ops: u64,
    /// The quiescent element count is not prefill + inserted − removed.
    pub count_violations: u64,
    /// The drained contents of a queue or stack hold a value twice, or more
    /// values than were ever added.
    pub contents_violations: u64,
}

/// `spec.threads` closed-loop clients each replay their stream on `built`.
/// Returns the slowest client's elapsed seconds and the element count the
/// structure must now hold.
fn run_clients(
    spec: &Spec,
    mem: &PMem,
    built: &Built,
    streams: &[Vec<StructOp>],
    boundaries: Boundaries,
) -> (f64, i64) {
    assert_eq!(streams.len(), spec.threads);
    let barrier = Barrier::new(spec.threads);
    let per_client: Vec<(f64, i64)> = std::thread::scope(|s| {
        let clients: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(pid, stream)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let t = mem.thread_with(pid, THREAD_OPTIONS);
                    let mut h = built.handle(&t, boundaries);
                    let mut net = 0i64;
                    barrier.wait();
                    let start = Instant::now();
                    for &op in stream {
                        net += net_effect(op, h.apply(op));
                    }
                    (start.elapsed().as_secs_f64(), net)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let slowest = per_client.iter().map(|&(secs, _)| secs).fold(0.0, f64::max);
    (
        slowest,
        spec.prefill as i64 + per_client.iter().map(|&(_, net)| net).sum::<i64>(),
    )
}

/// Drain a queue or stack: how many elements it held, and whether the
/// read-out was sound (no value twice, no more values than `at_most`).
fn drain_pairs(mem: &PMem, built: &Built, at_most: i64) -> (i64, u64) {
    let t = mem.thread_with(0, THREAD_OPTIONS);
    let drained = built
        .handle(&t, Boundaries::Detectable)
        .drain_up_to(at_most.max(0) as usize + 1);
    let distinct: HashSet<u64> = drained.items.iter().copied().collect();
    (
        drained.items.len() as i64,
        (drained.truncated || distinct.len() != drained.items.len()) as u64,
    )
}

/// Run one timed repetition: fresh machine, the clients, then the
/// conservation check.
pub fn timed_rep(spec: &Spec, c: Construction, streams: &[Vec<StructOp>]) -> Rep {
    let start = Instant::now();
    let (mem, built) = set_up(spec, c, spec.threads);
    let setup_s = start.elapsed().as_secs_f64();
    let (slowest, expected) = run_clients(spec, &mem, &built, streams, Boundaries::AsMeasured);
    let ops: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let count_violations =
        (built.len(&mem.thread_with(0, THREAD_OPTIONS)) as i64 != expected) as u64;
    let contents_violations = match spec.mix {
        Mix::Pairs => drain_pairs(&mem, &built, expected).1,
        Mix::Keyed { .. } => 0,
    };
    Rep {
        setup_s,
        mops: ops as f64 / slowest / 1e6,
        ops,
        count_violations,
        contents_violations,
    }
}

/// A full-system crash and restart of a quiescent machine.
#[derive(Clone, Copy, Debug)]
pub struct Restart {
    /// Kill → first answered operation on the restarted machine.
    pub ms: f64,
    /// Acknowledged elements missing after the restart, and removed ones back.
    pub lost: u64,
    pub resurrected: u64,
    /// A queue's or stack's contents after the restart are not sound.
    pub contents_violations: u64,
}

/// The clients replay their streams with **every boundary on** (so each
/// acknowledged operation is durable), then the machine crashes as a whole
/// (`crash_all`: every unflushed line rolls back), a new machine boots over
/// the surviving arena, and a new handle answers one operation. Whatever was
/// acknowledged must still be there.
pub fn restart_rep(spec: &Spec, c: Construction, streams: &[Vec<StructOp>]) -> Restart {
    assert_ne!(
        c,
        Construction::Original,
        "the original program is not durable"
    );
    let (mem, built) = set_up(spec, c, spec.threads);
    let (_, expected) = run_clients(spec, &mem, &built, streams, Boundaries::Detectable);
    let arena = mem.arena_handle();
    let killed = Instant::now();
    mem.crash_all();
    drop(mem);
    let mem = PMem::with_arena(MemConfig::new(spec.threads).mode(Mode::SharedCache), arena);
    {
        let t = mem.thread_with(0, THREAD_OPTIONS);
        let mut h = built.handle(&t, Boundaries::Detectable);
        h.apply(match spec.mix {
            Mix::Pairs => StructOp::Pop,
            Mix::Keyed { .. } => StructOp::Contains(0),
        });
    }
    let ms = killed.elapsed().as_secs_f64() * 1e3;
    let (survivors, contents_violations) = match spec.mix {
        // The probe popped one element; some slack shows resurrected ones.
        Mix::Pairs => {
            let (drained, unsound) = drain_pairs(&mem, &built, expected + 64);
            (drained + 1, unsound)
        }
        Mix::Keyed { .. } => (built.len(&mem.thread_with(0, THREAD_OPTIONS)) as i64, 0),
    };
    Restart {
        ms,
        lost: (expected - survivors).max(0) as u64,
        resurrected: (survivors - expected).max(0) as u64,
        contents_violations,
    }
}

/// What the one-thread count pass measured. Deterministic: repeats exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counted {
    pub ops: u64,
    pub stats: Stats,
    /// Return values (and final contents) that disagree with the model.
    pub mismatches: u64,
}

/// Compare the structure's final contents with the model's.
fn contents_mismatch(h: &mut dyn Handle, model: &Model) -> u64 {
    let expected = model.drained();
    let drained = h.drain_up_to(expected.len() + 1);
    (drained.truncated || drained.items != expected) as u64
}

/// One thread replays `stream`; every return value is checked against the
/// sequential model and the instruction counts are taken from `pmem::Stats`.
pub fn count_pass(
    spec: &Spec,
    c: Construction,
    stream: &[StructOp],
    fault: Option<ModelFault>,
) -> Counted {
    let (mem, built) = set_up(spec, c, 1);
    let t = mem.thread_with(0, THREAD_OPTIONS);
    let mut h = built.handle(&t, Boundaries::AsMeasured);
    let mut model = Model::new(spec, fault);
    let mut mismatches = 0;
    let _ = t.take_stats();
    for &op in stream {
        mismatches += (h.apply(op) != model.apply(op)) as u64;
    }
    let stats = t.stats();
    mismatches += contents_mismatch(h.as_mut(), &model);
    Counted {
        ops: stream.len() as u64,
        stats,
        mismatches,
    }
}

/// What the faulty pass measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Faulted {
    pub ops: u64,
    pub crashes: u64,
    /// Simulated instructions spent reloading state after faults.
    pub recovery_steps: u64,
    pub capsules: CapsuleMetrics,
    /// Return values (and final contents) that disagree with the model.
    pub mismatches: u64,
}

/// One thread replays `stream` while the process faults at seeded simulated
/// instructions and the capsule runtime recovers in place — the paper's
/// model. Every return value must still match the model (exactly-once).
pub fn faulty_pass(spec: &Spec, c: Construction, stream: &[StructOp], crash_seed: u64) -> Faulted {
    assert_ne!(
        c,
        Construction::Original,
        "the original program does not survive faults"
    );
    pmem::install_quiet_crash_hook();
    // One handle for the process's whole life, prefill included: a second
    // handle would start its sequence numbers again, and recovery compares
    // them with what the first one left in the announcement array.
    let (mem, built) = build(spec, c, 1);
    let t = mem.thread_with(0, THREAD_OPTIONS);
    let mut h = built.handle(&t, Boundaries::Detectable);
    for op in spec.prefill_ops() {
        h.apply(op);
    }
    mem.persist_everything();
    let mut model = Model::new(spec, None);
    let mut mismatches = 0;
    let _ = t.take_stats();
    t.set_crash_policy(CrashPolicy::Random {
        prob: spec.fault_prob,
        seed: crash_seed,
    });
    for &op in stream {
        mismatches += (h.apply(op) != model.apply(op)) as u64;
    }
    t.disarm_crashes();
    let stats = t.stats();
    let capsules = h
        .capsule_metrics()
        .expect("detectable constructions run on capsules");
    mismatches += contents_mismatch(h.as_mut(), &model);
    Faulted {
        ops: stream.len() as u64,
        crashes: stats.crashes,
        recovery_steps: stats.recovery_steps,
        capsules,
        mismatches,
    }
}

/// Call → return latency of each operation as a closed-loop client sees it.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// One thread replays `stream`, timing every call.
pub fn latency_pass(spec: &Spec, c: Construction, stream: &[StructOp]) -> Latency {
    let (mem, built) = set_up(spec, c, 1);
    let t = mem.thread_with(0, THREAD_OPTIONS);
    let mut h = built.handle(&t, Boundaries::AsMeasured);
    let mut ns = Vec::with_capacity(stream.len());
    for &op in stream {
        let called = Instant::now();
        std::hint::black_box(h.apply(op));
        ns.push(called.elapsed().as_nanos().min(u32::MAX as u128) as u32);
    }
    Latency {
        p50_ns: quantile_ns(&mut ns, 0.50),
        p99_ns: quantile_ns(&mut ns, 0.99),
    }
}

/// One thread replays `stream` with no instrumentation at all: the base the
/// traced pass's overhead is measured against. Returns millions of ops/s.
pub fn plain_pass(spec: &Spec, c: Construction, stream: &[StructOp]) -> f64 {
    let (mem, built) = set_up(spec, c, 1);
    let t = mem.thread_with(0, THREAD_OPTIONS);
    let mut h = built.handle(&t, Boundaries::AsMeasured);
    let start = Instant::now();
    for &op in stream {
        std::hint::black_box(h.apply(op));
    }
    stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6
}
