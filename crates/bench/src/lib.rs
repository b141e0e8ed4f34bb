//! Benchmark harness: the variant table ([`dfck::Variant`]), the one throughput
//! runner ([`run_workload`]) behind the figure-reproduction binaries (`fig5`,
//! `fig6`, `fig7` and `fig_struct`) and the exact per-variant count table of
//! the integration tests, and the exhaustive crash-point sweeper ([`dfck`])
//! over the same table.
//!
//! The queue workload reproduces §10: every thread runs enqueue–dequeue *pairs* on a
//! queue pre-filled with `prefill` nodes, and we report throughput in million
//! operations per second (an enqueue and a dequeue each count as one operation, as in
//! the paper). Thread counts sweep 1–8 by default. Run lengths are controlled by
//! environment variables so a laptop run finishes quickly while a paper-scale run is
//! one variable away (a value that does not parse ends the run with exit code 2):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `DF_PAIRS` | operation rounds (pairs) per thread per data point | 50 000 |
//! | `DF_PREFILL` | nodes pre-inserted before timing | 10 000 (the paper used 1M) |
//! | `DF_MAX_THREADS` | largest thread count in the sweep (1..=[`dfck::max_nprocs`]) | min(8, #cores) |

#![warn(missing_docs)]

pub mod ablation;
pub mod dfck;
pub mod json;
pub mod structs_bench;
pub mod sweep;

use std::ops::RangeInclusive;
use std::sync::Barrier;
use std::time::Instant;

use delayfree::StructOp;
use pmem::{MemConfig, Mode, PMem, Stats};
use structs::MapConfig;

use dfck::{Shape, Variant};

/// Parameters of the figure workloads.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Operation rounds executed by each thread: enqueue–dequeue / push–pop
    /// pairs, or insert–contains–remove rounds on sets and maps.
    pub pairs_per_thread: u64,
    /// Elements inserted before timing starts.
    pub prefill: u64,
}

/// Default rounds per thread when `DF_PAIRS` is unset. Tiny under `cfg(test)` so
/// the harness's own tests run in smoke mode within tier-1.
#[cfg(not(test))]
pub const DEFAULT_PAIRS: u64 = 50_000;
/// Smoke-mode default (see the non-test value).
#[cfg(test)]
pub const DEFAULT_PAIRS: u64 = 200;

/// Default prefill when `DF_PREFILL` is unset (the paper used 1M). Tiny under
/// `cfg(test)` so the harness's own tests run in smoke mode within tier-1.
#[cfg(not(test))]
pub const DEFAULT_PREFILL: u64 = 10_000;
/// Smoke-mode default (see the non-test value).
#[cfg(test)]
pub const DEFAULT_PREFILL: u64 = 50;

impl WorkloadConfig {
    /// Read the run-length knobs from the environment (see crate docs).
    pub fn from_env(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            pairs_per_thread: env_u64_in("DF_PAIRS", DEFAULT_PAIRS, 1..=u64::MAX),
            prefill: env_u64("DF_PREFILL", DEFAULT_PREFILL),
        }
    }
}

/// Read the integer environment knob `name`: `default` when unset; a value
/// that does not parse or lies outside `range` ends the process with exit
/// code 2, naming the knob. A knob that silently fell back to its default
/// would run a different experiment than the one asked for and report it
/// green.
pub fn env_u64_in(name: &str, default: u64, range: RangeInclusive<u64>) -> u64 {
    let Ok(raw) = std::env::var(name) else { return default };
    match raw.trim().parse::<u64>() {
        Ok(v) if range.contains(&v) => return v,
        Ok(v) => eprintln!("error: {name}={v} is out of range ({range:?})"),
        Err(_) => eprintln!("error: {name}={raw:?} is not an unsigned integer"),
    }
    std::process::exit(2);
}

/// [`env_u64_in`] for a knob every value of which is meaningful.
pub fn env_u64(name: &str, default: u64) -> u64 {
    env_u64_in(name, default, 0..=u64::MAX)
}

/// Largest thread count a sweep should use (`DF_MAX_THREADS`, at least 1 and
/// at most the [`dfck::max_nprocs`] processes every variant can be built for).
pub fn max_threads() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
    env_u64_in("DF_MAX_THREADS", cores.min(8) as u64, 1..=dfck::max_nprocs() as u64) as usize
}

/// One measured data point of any figure.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// The variant measured.
    pub variant: Variant,
    /// Worker-thread count.
    pub threads: usize,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Cache-line flushes per operation.
    pub flushes_per_op: f64,
    /// Fences per operation.
    pub fences_per_op: f64,
    /// Dedup-able flushes per operation: flushes of a line already flushed in
    /// the same fence window (`pmem`'s `Stats::duplicate_flushes`; counted,
    /// never elided).
    pub duplicate_flushes_per_op: f64,
}

/// The one throughput runner behind every figure: build `variant` for `threads`
/// workers, prefill it from thread 0 (`prefill.0` operations `prefill.1(i)`,
/// untimed, uncounted), make everything durable, then let every worker run
/// `ops_per_thread` operations of its own stream (`stream(pid)(i)`) between a
/// barrier and the clock, and sum the workers' [`Stats`] (handle set-up
/// included, as the committed baselines count it).
///
/// A map variant gets a bucket array small enough that the measured window
/// still crosses grow cycles (the resize protocol is part of the cost being
/// measured), large enough that steady-state chains stay short.
/// `as_measured` elides the per-operation entry and final boundaries of
/// capsule handles, as the paper's §10 queue measurements do (they are common
/// to every variant under test); the structure figures keep the library
/// defaults.
fn run_throughput<S: FnMut(u64) -> StructOp>(
    variant: Variant,
    threads: usize,
    as_measured: bool,
    prefill: (u64, impl Fn(u64) -> StructOp),
    ops_per_thread: u64,
    stream: impl Fn(usize) -> S + Sync,
) -> Measurement {
    let mem = PMem::new(MemConfig::new(threads.max(1)).mode(Mode::SharedCache));
    let nodes = prefill.0 + ops_per_thread * threads as u64 + 64;
    let built = dfck::build(variant, &mem.thread(0), threads, MapConfig::new(64, 8), nodes, true, None);
    let opts = variant.thread_options();
    {
        let t = mem.thread_with(0, opts);
        let mut h = built.handle(&t);
        h.set_op_boundaries(!as_measured);
        for i in 0..prefill.0 {
            let _ = h.apply((prefill.1)(i));
        }
    }
    mem.persist_everything();

    let barrier = Barrier::new(threads);
    let results: Vec<(f64, Stats)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|pid| {
                let (mem, built, barrier, stream) = (&mem, &built, &barrier, &stream);
                s.spawn(move || {
                    let t = mem.thread_with(pid, opts);
                    // Build the handle before the barrier so set-up time is excluded.
                    let mut h = built.handle(&t);
                    h.set_op_boundaries(!as_measured);
                    let mut next_op = stream(pid);
                    barrier.wait();
                    let start = Instant::now();
                    for i in 0..ops_per_thread {
                        let _ = h.apply(next_op(i));
                    }
                    (start.elapsed().as_secs_f64(), t.stats())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let wall = results.iter().map(|(secs, _)| *secs).fold(0.0f64, f64::max);
    let total_ops = ops_per_thread * threads as u64;
    let stats: Stats = results.iter().map(|(_, s)| *s).sum();
    Measurement {
        variant,
        threads,
        mops: total_ops as f64 / wall / 1e6,
        flushes_per_op: stats.flushes_per_op(total_ops),
        fences_per_op: stats.fences_per_op(total_ops),
        duplicate_flushes_per_op: stats.duplicate_flushes_per_op(total_ops),
    }
}

/// Run the figure workload of `variant`'s shape through `run_throughput`.
///
/// Queues run §10's workload: every thread runs enqueue–dequeue *pairs* on a
/// queue pre-filled with `prefill` nodes, boundaries as measured in the paper.
/// Stacks run push–pop pairs; sets and maps run an insert–contains–remove round
/// on a per-thread key stripe, so every round exercises both the one-CAS and
/// the two-CAS (mark + unlink) protocol paths, over `prefill` distinct odd keys
/// that bound the search cost.
pub fn run_workload(variant: Variant, cfg: &WorkloadConfig) -> Measurement {
    let (rounds, threads) = (cfg.pairs_per_thread, cfg.threads as u64);
    match variant.shape() {
        shape @ (Shape::Fifo | Shape::Lifo) => run_throughput(
            variant,
            cfg.threads,
            shape == Shape::Fifo,
            (cfg.prefill, StructOp::Push),
            2 * rounds,
            |pid| {
                let base = (pid as u64) << 48;
                move |i| match i % 2 {
                    0 => StructOp::Push(base + i / 2),
                    _ => StructOp::Pop,
                }
            },
        ),
        Shape::Set | Shape::Map => run_throughput(
            variant,
            cfg.threads,
            false,
            (cfg.prefill, |i| StructOp::Insert(1 + 2 * i)),
            3 * rounds,
            |pid| {
                move |i| {
                    // Even keys, interleaved across threads near the head of
                    // the list: disjoint between workers (distinct
                    // mod-2·threads residues), disjoint from the odd prefill,
                    // and bounded search depth for every pid (a `pid << 48`
                    // stripe would make every worker but pid 0 traverse the
                    // whole prefill on each operation).
                    let k = 2 * (((i / 3) % 64) * threads + pid as u64);
                    match i % 3 {
                        0 => StructOp::Insert(k),
                        1 => StructOp::Contains(k),
                        _ => StructOp::Remove(k),
                    }
                }
            },
        ),
    }
}

/// Run a whole figure: the given variants over 1..=`max_threads` threads, printing a
/// CSV-ish table like the paper's plots (one row per (threads, variant)).
pub fn run_figure(title: &str, variants: &[Variant]) -> Vec<Measurement> {
    let max = max_threads();
    let probe = WorkloadConfig::from_env(1);
    println!("# {title}");
    println!(
        "# rounds/thread = {}, prefill = {}, threads = 1..={max}",
        probe.pairs_per_thread, probe.prefill
    );
    println!("{:<10} {:<28} {:>10} {:>12} {:>12}", "threads", "variant", "Mops/s", "flushes/op", "fences/op");
    let mut all = Vec::new();
    for threads in 1..=max {
        let cfg = WorkloadConfig { threads, ..probe };
        for &variant in variants {
            let m = run_workload(variant, &cfg);
            println!(
                "{:<10} {:<28} {:>10.3} {:>12.2} {:>12.2}",
                m.threads,
                m.variant.label(),
                m.mops,
                m.flushes_per_op,
                m.fences_per_op
            );
            all.push(m);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            pairs_per_thread: 200,
            prefill: 50,
        }
    }

    fn queue_variants() -> impl Iterator<Item = Variant> {
        Variant::all().into_iter().filter(|v| v.shape() == Shape::Fifo)
    }

    #[test]
    fn every_variant_runs_the_workload() {
        for variant in queue_variants() {
            let m = run_workload(variant, &tiny(2));
            assert!(m.mops > 0.0, "{variant:?} produced no throughput");
        }
    }

    #[test]
    fn variant_all_is_exhaustive() {
        let all = Variant::all();
        for figure in [Variant::figure5(), Variant::figure6(), Variant::figure7()] {
            for v in figure {
                assert!(all.contains(&v), "{v:?} missing from Variant::all()");
                assert_eq!(v.shape(), Shape::Fifo, "the paper's figures measure queues");
            }
        }
        for v in Variant::swept() {
            assert!(all.contains(&v), "{v:?} missing from Variant::all()");
        }
        assert_eq!(Variant::swept().len(), 15, "the dfck matrix must not grow by accident");
    }

    #[test]
    fn persistent_variants_flush_and_msq_does_not() {
        let msq = run_workload(Variant::Msq, &tiny(1));
        assert_eq!(msq.flushes_per_op, 0.0);
        for variant in [
            Variant::IzraelevitzMsq,
            Variant::General,
            Variant::Normalized,
            Variant::LogQueue,
            Variant::Romulus,
        ] {
            let m = run_workload(variant, &tiny(1));
            assert!(m.flushes_per_op > 0.0, "{variant:?} should flush");
        }
    }

    #[test]
    fn from_env_smoke_sweep_covers_every_variant() {
        // Under cfg(test) the env-var defaults are tiny, so driving the same
        // config path the figure binaries use stays fast enough for tier-1.
        // (If DF_PAIRS/DF_PREFILL are set in the environment they win, exactly
        // as they do for the binaries.)
        let cfg = WorkloadConfig::from_env(1);
        assert_eq!(cfg.threads, 1);
        for variant in queue_variants() {
            let m = run_workload(variant, &cfg);
            assert!(m.mops > 0.0, "{variant:?} produced no throughput");
        }
    }

    #[test]
    fn figure_lists_are_as_in_the_paper() {
        assert_eq!(Variant::figure5().len(), 3);
        assert_eq!(Variant::figure6().len(), 6);
        assert!(Variant::figure7().contains(&Variant::Msq));
    }

    /// Fences per operation of `variant` pinned to the full simulator (the
    /// figures always run the default, adaptive, configuration).
    fn slow_path_fences_per_op(variant: Variant) -> f64 {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let built = dfck::build(variant, &t, 1, MapConfig::default(), 0, false, None);
        let mut h = built.handle(&t);
        h.set_op_boundaries(false);
        let before = t.stats();
        for i in 0..200 {
            let _ = h.apply(StructOp::Push(i));
            let _ = h.apply(StructOp::Pop);
        }
        t.stats().since(&before).fences_per_op(400)
    }

    #[test]
    fn opt_variants_use_fewer_fences_than_their_bases() {
        // This asserts on the *simulators'* instruction profiles, so pin the
        // slow path: under the adaptive fast path (the default of every
        // one-CAS structure — queues, stacks and maps) the General and
        // Normalized constructions converge to the same single-CAS profile
        // when uncontended (their remaining difference is the boundary style).
        let general = slow_path_fences_per_op(Variant::General);
        assert!(slow_path_fences_per_op(Variant::GeneralOpt) < general);
        let normalized = slow_path_fences_per_op(Variant::Normalized);
        assert!(slow_path_fences_per_op(Variant::NormalizedOpt) < normalized);
        // The adaptive fast path must only ever lower the fence count.
        let adaptive = run_workload(Variant::General, &tiny(1));
        assert!(adaptive.fences_per_op <= general);
    }
}
