//! Per-layer measurement, from outside the crates through their public API:
//! unit costs of `pmem`, `rcas`, `capsules` and `core` in one-thread tight
//! loops, and the traced pass — one span per handle call with the
//! `pmem::Stats` delta it caused.

use std::hint::black_box;
use std::time::Instant;

use capsules::{BoundaryStyle, CapsuleMetrics, CapsuleRuntime, CapsuleStep};
use delayfree::{
    CasDesc, CasList, CasReadSimulator, ConstantDelaySimulator, NormalizedCtx, NormalizedOp,
    NormalizedSimulator, WrapUp, NORMALIZED_LOCALS,
};
use pmem::{MemConfig, Mode, PAddr, PMem, PThread, Stats};
use rcas::RcasSpace;
use structs::StructOp;

use crate::structures::{set_up, Boundaries, Construction, THREAD_OPTIONS};
use crate::workloads::Spec;

/// Iterations of the `pmem` unit loops (as `instr_overhead`).
const PMEM_ITERS: u64 = 10_000_000;
/// Iterations of the allocation loop (each allocates a four-word node).
const ALLOC_ITERS: u64 = 1_000_000;
/// Iterations of the `rcas`, `capsules` and `core` loops: far below the
/// 26-bit sequence space of `RcasLayout::DEFAULT`.
const UNIT_ITERS: u64 = 1_000_000;

fn machine(threads: usize) -> PMem {
    PMem::new(MemConfig::new(threads).mode(Mode::SharedCache))
}

/// Time `iters` calls of `op`; returns (ns per call, the instructions issued).
fn time_loop(t: &PThread<'_>, iters: u64, mut op: impl FnMut(u64)) -> (f64, Stats) {
    let _ = t.take_stats();
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
    (ns, t.take_stats())
}

/// Host nanoseconds per simulated instruction, crash policy disarmed.
#[derive(Clone, Copy, Debug)]
pub struct PmemCosts {
    pub read_ns: f64,
    pub write_ns: f64,
    pub cas_ns: f64,
    pub flush_ns: f64,
    pub fence_ns: f64,
    /// Per allocated word, measured allocating four-word nodes.
    pub alloc_ns: f64,
}

impl PmemCosts {
    pub fn measure() -> PmemCosts {
        let mem = machine(1);
        let t = mem.thread(0);
        // A line of its own, so the flush loop touches one allocated line.
        let a = t.alloc(pmem::LINE_WORDS);
        let read_ns = time_loop(&t, PMEM_ITERS, |_| {
            black_box(t.read(a));
        })
        .0;
        let write_ns = time_loop(&t, PMEM_ITERS, |i| t.write(a, i)).0;
        let cas_ns = time_loop(&t, PMEM_ITERS, |i| {
            black_box(t.cas(a, i, i + 1));
        })
        .0;
        let flush_ns = time_loop(&t, PMEM_ITERS, |_| t.flush(a)).0;
        let fence_ns = time_loop(&t, PMEM_ITERS, |_| t.fence()).0;
        let alloc_ns = time_loop(&t, ALLOC_ITERS, |_| {
            black_box(t.alloc(4));
        })
        .0 / 4.0;
        PmemCosts {
            read_ns,
            write_ns,
            cas_ns,
            flush_ns,
            fence_ns,
            alloc_ns,
        }
    }

    /// Σ count × unit cost: what `stats` would take if every instruction ran
    /// at its tight-loop cost.
    pub fn estimate_ns(&self, s: &Stats) -> f64 {
        s.reads as f64 * self.read_ns
            + s.writes as f64 * self.write_ns
            + s.cas as f64 * self.cas_ns
            + s.flushes as f64 * self.flush_ns
            + s.fences as f64 * self.fence_ns
            + s.words_allocated as f64 * self.alloc_ns
    }
}

/// One recoverable CAS and its siblings on a private, durable `RcasSpace`.
#[derive(Clone, Copy, Debug)]
pub struct RcasCosts {
    pub cas_ns: f64,
    pub cas_evidence_ns: f64,
    pub read_ns: f64,
    pub recover_ns: f64,
    /// Simulated instructions, flushes, fences and raw CASes of one `cas`.
    pub cas_instr: f64,
    pub cas_flushes: f64,
    pub cas_fences: f64,
    pub cas_raw_cas: f64,
    /// `cas_ns` minus its instructions at `pmem` unit cost.
    pub cas_self_ns: f64,
    /// Two threads incrementing one word: lost attempts ÷ attempts.
    pub cas_fail_frac_2t: f64,
}

impl RcasCosts {
    pub fn measure(pmem: &PmemCosts) -> RcasCosts {
        let mem = machine(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1).with_durability(true);
        let x = space.create(&t, 0).addr();
        let per = |s: Stats, f: fn(&Stats) -> u64| f(&s) as f64 / UNIT_ITERS as f64;
        let (cas_ns, s) = time_loop(&t, UNIT_ITERS, |i| {
            black_box(space.cas(&t, x, i, i + 1, i + 1));
        });
        let cas_self_ns = (cas_ns - pmem.estimate_ns(&s) / UNIT_ITERS as f64).max(0.0);
        let base = UNIT_ITERS;
        let cas_evidence_ns = time_loop(&t, UNIT_ITERS, |i| {
            black_box(space.cas_with_evidence(&t, x, base + i, base + i + 1, base + i + 1, i));
        })
        .0;
        let read_ns = time_loop(&t, UNIT_ITERS, |_| {
            black_box(space.read(&t, x));
        })
        .0;
        let recover_ns = time_loop(&t, UNIT_ITERS, |_| {
            black_box(space.recover(&t, x));
        })
        .0;
        RcasCosts {
            cas_ns,
            cas_evidence_ns,
            read_ns,
            recover_ns,
            cas_instr: per(s, Stats::total_instructions),
            cas_flushes: per(s, |s| s.flushes),
            cas_fences: per(s, |s| s.fences),
            cas_raw_cas: per(s, |s| s.cas),
            cas_self_ns,
            cas_fail_frac_2t: Self::contended_fail_frac(),
        }
    }

    fn contended_fail_frac() -> f64 {
        const PER_THREAD: u64 = 200_000;
        let mem = machine(2);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, 2).with_durability(true);
        let x = space.create(&t0, 0).addr();
        drop(t0);
        let barrier = std::sync::Barrier::new(2);
        let attempts: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|pid| {
                    let (mem, space, barrier) = (&mem, &space, &barrier);
                    s.spawn(move || {
                        let t = mem.thread(pid);
                        let (mut done, mut attempts) = (0, 0u64);
                        barrier.wait();
                        while done < PER_THREAD {
                            let v = space.read(&t, x);
                            attempts += 1;
                            done += space.cas(&t, x, v, v + 1, attempts) as u64;
                        }
                        attempts
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("rcas worker panicked"))
                .sum()
        });
        1.0 - (2 * PER_THREAD) as f64 / attempts as f64
    }
}

/// The capsule runtime alone: a boundary persisting one changed local, and
/// the operation driver around an empty body.
#[derive(Clone, Copy, Debug)]
pub struct CapsuleCosts {
    pub boundary_ns_general: f64,
    pub boundary_ns_compact: f64,
    /// Flushes, fences and frame words written by one General boundary.
    pub boundary_flushes: f64,
    pub boundary_fences: f64,
    pub boundary_writes: f64,
    /// The General boundary minus its instructions at `pmem` unit cost.
    pub boundary_self_ns: f64,
    /// `run_op` whose body returns `Done` at once (entry boundary off).
    pub empty_op_ns: f64,
}

impl CapsuleCosts {
    pub fn measure(pmem: &PmemCosts) -> CapsuleCosts {
        let mem = machine(1);
        let t = mem.thread(0);
        let boundary = |style: BoundaryStyle| {
            let mut rt = CapsuleRuntime::new(&t, style, 4);
            time_loop(&t, UNIT_ITERS, |i| {
                rt.set_local(0, i);
                rt.boundary((i & 1) as u32);
            })
        };
        let (boundary_ns_general, s) = boundary(BoundaryStyle::General);
        let (boundary_ns_compact, _) = boundary(BoundaryStyle::Compact);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 4);
        rt.set_entry_boundary(false);
        let empty_op_ns = time_loop(&t, UNIT_ITERS, |i| {
            black_box(rt.run_op(0, |_| CapsuleStep::Done(i)));
        })
        .0;
        let n = UNIT_ITERS as f64;
        CapsuleCosts {
            boundary_ns_general,
            boundary_ns_compact,
            boundary_flushes: s.flushes as f64 / n,
            boundary_fences: s.fences as f64 / n,
            boundary_writes: s.writes as f64 / n,
            boundary_self_ns: (boundary_ns_general - pmem.estimate_ns(&s) / n).max(0.0),
            empty_op_ns,
        }
    }
}

/// A fetch-and-add through one of `core`'s simulators.
#[derive(Clone, Copy, Debug)]
pub struct SimulatorCost {
    pub ns_per_op: f64,
    pub instr_per_op: f64,
    /// Simulated instructions per op ÷ those of a bare read + CAS loop.
    pub delay_x: f64,
}

/// `core`'s three simulators on the same fetch-and-add.
#[derive(Clone, Copy, Debug)]
pub struct CoreCosts {
    pub constant_delay: SimulatorCost,
    pub cas_read: SimulatorCost,
    pub normalized: SimulatorCost,
}

struct FetchAdd {
    x: PAddr,
}

impl NormalizedOp for FetchAdd {
    type Input = u64;
    type Output = u64;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, add: &u64) -> CasList {
        let v = ctx.read(self.x);
        vec![CasDesc::new(self.x, v, v + add).with_aux(v)]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _add: &u64,
        list: &CasList,
        executed: usize,
    ) -> WrapUp<u64> {
        if executed == list.len() {
            WrapUp::Done(list[0].aux)
        } else {
            WrapUp::Restart
        }
    }
}

impl CoreCosts {
    pub fn measure() -> CoreCosts {
        let mem = machine(1);
        let t = mem.thread(0);
        let bare = {
            let a = t.alloc(1);
            let (_, s) = time_loop(&t, UNIT_ITERS, |_| {
                let v = t.read(a);
                black_box(t.cas(a, v, v + 1));
            });
            s.total_instructions() as f64 / UNIT_ITERS as f64
        };
        let cost = |(ns_per_op, s): (f64, Stats)| {
            let instr_per_op = s.total_instructions() as f64 / UNIT_ITERS as f64;
            SimulatorCost {
                ns_per_op,
                instr_per_op,
                delay_x: instr_per_op / bare,
            }
        };
        let space = RcasSpace::with_default_layout(&t, 1).with_durability(true);

        let x = space.create(&t, 0).addr();
        let sim = ConstantDelaySimulator::new(space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        let constant_delay = cost(time_loop(&t, UNIT_ITERS, |_| {
            rt.run_op(0, |rt| match rt.pc() {
                0 => {
                    sim.read(rt, x, 0, 1);
                    CapsuleStep::Continue
                }
                1 => {
                    let v = rt.local(0);
                    if !sim.cas(rt, x, v, v + 1, 1, 2) {
                        rt.boundary(0);
                    }
                    CapsuleStep::Continue
                }
                _ => CapsuleStep::Done(()),
            })
        }));

        let x = space.create(&t, 0).addr();
        let sim = CasReadSimulator::new(space);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        let cas_read = cost(time_loop(&t, UNIT_ITERS, |_| {
            rt.run_op(0, |rt| match rt.pc() {
                0 => {
                    let v = sim.read(rt, x);
                    rt.set_local(0, v);
                    rt.boundary(1);
                    CapsuleStep::Continue
                }
                1 => {
                    let v = rt.local(0);
                    if sim.capsule_cas(rt, x, v, v + 1) {
                        rt.boundary(2);
                        CapsuleStep::Done(())
                    } else {
                        rt.boundary(0);
                        CapsuleStep::Continue
                    }
                }
                _ => CapsuleStep::Done(()),
            })
        }));

        let op = FetchAdd {
            x: space.create(&t, 0).addr(),
        };
        let sim = NormalizedSimulator::new(space, true);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, NORMALIZED_LOCALS);
        let normalized = cost(time_loop(&t, UNIT_ITERS, |_| {
            black_box(sim.run(&mut rt, &op, &1));
        }));
        CoreCosts {
            constant_delay,
            cas_read,
            normalized,
        }
    }
}

/// One handle call of the traced pass.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `Contains` is a read; everything else updates.
    pub read: bool,
    /// Nanoseconds since the pass began.
    pub start_ns: u64,
    pub end_ns: u64,
    pub flushes: u32,
    pub fences: u32,
}

/// The traced one-thread pass of one construction: the parent span of
/// `spans`, with the totals the per-layer split is computed from.
#[derive(Clone, Debug)]
pub struct Traced {
    pub construction: Construction,
    pub spans: Vec<Span>,
    pub stats: Stats,
    pub capsules: Option<CapsuleMetrics>,
    pub secs: f64,
}

/// One thread replays `stream`; every handle call is a span carrying the
/// flushes and fences it issued. Spans stay in memory until the run ends.
pub fn traced_pass(spec: &Spec, c: Construction, stream: &[StructOp]) -> Traced {
    let (mem, built) = set_up(spec, c, 1);
    let t = mem.thread_with(0, THREAD_OPTIONS);
    let mut h = built.handle(&t, Boundaries::AsMeasured);
    let mut spans = Vec::with_capacity(stream.len());
    let _ = t.take_stats();
    let begin = Instant::now();
    for &op in stream {
        let before = t.stats();
        let start = begin.elapsed();
        black_box(h.apply(op));
        let end = begin.elapsed();
        let after = t.stats();
        spans.push(Span {
            read: matches!(op, StructOp::Contains(_)),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            flushes: (after.flushes - before.flushes) as u32,
            fences: (after.fences - before.fences) as u32,
        });
    }
    let secs = begin.elapsed().as_secs_f64();
    let stats = t.stats();
    let capsules = h.capsule_metrics();
    Traced {
        construction: c,
        spans,
        stats,
        capsules,
        secs,
    }
}
