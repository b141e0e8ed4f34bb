//! Benchmark harness: the workload generator and queue-variant registry used by the
//! figure-reproduction binaries (`fig5`, `fig6`, `fig7`, `flush_table`,
//! `recovery_table`) and the Criterion benches.
//!
//! The workload reproduces §10: every thread runs enqueue–dequeue *pairs* on a queue
//! pre-filled with `prefill` nodes, and we report throughput in million operations
//! per second (an enqueue and a dequeue each count as one operation, as in the
//! paper). Thread counts sweep 1–8 by default. Run lengths are controlled by
//! environment variables so a laptop run finishes quickly while a paper-scale run is
//! one variable away:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `DF_PAIRS` | enqueue–dequeue pairs per thread per data point | 50 000 |
//! | `DF_PREFILL` | nodes pre-inserted before timing | 10 000 (the paper used 1M) |
//! | `DF_MAX_THREADS` | largest thread count in the sweep | min(8, #cores) |

#![warn(missing_docs)]

pub mod dfck;
pub mod json;
pub mod structs_bench;
pub mod sweep;

use std::sync::Barrier;
use std::time::Instant;

use capsules::BoundaryStyle;
use pmem::{MemConfig, Mode, PMem, Stats, ThreadOptions};
use queues::{Durability, GeneralQueue, LogQueue, MsQueue, NormalizedQueue, QueueHandle};
use romulus::RomulusQueue;

/// Every queue configuration that appears in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The original Michael–Scott queue, no persistence (Figure 7 baseline).
    Msq,
    /// MSQ + the Izraelevitz construction (Figure 5 upper bound).
    IzraelevitzMsq,
    /// General (CAS-Read) transformation + Izraelevitz construction (Figure 5).
    GeneralIzraelevitz,
    /// Normalized transformation + Izraelevitz construction (Figure 5).
    NormalizedIzraelevitz,
    /// General transformation with manual flushes (Figure 6).
    GeneralManual,
    /// Hand-optimised General with manual flushes (Figure 6).
    GeneralOptManual,
    /// Normalized transformation with manual flushes (Figure 6).
    NormalizedManual,
    /// Hand-optimised Normalized with manual flushes (Figure 6).
    NormalizedOptManual,
    /// Friedman et al.'s durable, detectable LogQueue (Figure 6).
    LogQueue,
    /// The Romulus-style durable-TM queue (Figure 6).
    Romulus,
}

impl Variant {
    /// Short label used in tables and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Msq => "MSQ",
            Variant::IzraelevitzMsq => "Izraelevitz-MSQ",
            Variant::GeneralIzraelevitz => "General (Izraelevitz)",
            Variant::NormalizedIzraelevitz => "Normalized (Izraelevitz)",
            Variant::GeneralManual => "General",
            Variant::GeneralOptManual => "General-Opt",
            Variant::NormalizedManual => "Normalized",
            Variant::NormalizedOptManual => "Normalized-Opt",
            Variant::LogQueue => "LogQueue",
            Variant::Romulus => "Romulus",
        }
    }

    /// Every variant, for exhaustive sweeps and smoke tests. Keep in sync with
    /// the enum: [`Variant::label`]'s exhaustive `match` breaks the build when a
    /// variant is added, and `variant_all_is_exhaustive` fails if it is not also
    /// added here.
    pub fn all() -> Vec<Variant> {
        vec![
            Variant::Msq,
            Variant::IzraelevitzMsq,
            Variant::GeneralIzraelevitz,
            Variant::NormalizedIzraelevitz,
            Variant::GeneralManual,
            Variant::GeneralOptManual,
            Variant::NormalizedManual,
            Variant::NormalizedOptManual,
            Variant::LogQueue,
            Variant::Romulus,
        ]
    }

    /// The series of Figure 5 (queues under the Izraelevitz construction).
    pub fn figure5() -> Vec<Variant> {
        vec![
            Variant::IzraelevitzMsq,
            Variant::GeneralIzraelevitz,
            Variant::NormalizedIzraelevitz,
        ]
    }

    /// The series of Figure 6 (manual flushes vs prior work).
    pub fn figure6() -> Vec<Variant> {
        vec![
            Variant::GeneralManual,
            Variant::GeneralOptManual,
            Variant::NormalizedManual,
            Variant::NormalizedOptManual,
            Variant::LogQueue,
            Variant::Romulus,
        ]
    }

    /// The series of Figure 7 (persistent queues vs the original MSQ).
    pub fn figure7() -> Vec<Variant> {
        vec![
            Variant::Msq,
            Variant::IzraelevitzMsq,
            Variant::GeneralManual,
            Variant::NormalizedOptManual,
            Variant::LogQueue,
            Variant::Romulus,
        ]
    }

    /// Whether the variant's thread handles apply the Izraelevitz construction.
    fn izraelevitz(&self) -> bool {
        matches!(
            self,
            Variant::IzraelevitzMsq | Variant::GeneralIzraelevitz | Variant::NormalizedIzraelevitz
        )
    }
}

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Enqueue–dequeue pairs executed by each thread.
    pub pairs_per_thread: u64,
    /// Nodes inserted before timing starts.
    pub prefill: u64,
    /// Whether the capsule variants use the contention-adaptive fast path
    /// (defaults to the `DF_ADAPTIVE` knob; see [`capsules::adaptive_enabled`]).
    pub adaptive: bool,
}

/// Default enqueue–dequeue pairs per thread when `DF_PAIRS` is unset. Tiny under
/// `cfg(test)` so the harness's own tests run in smoke mode within tier-1.
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
            pairs_per_thread: env_u64("DF_PAIRS", DEFAULT_PAIRS),
            prefill: env_u64("DF_PREFILL", DEFAULT_PREFILL),
            adaptive: capsules::adaptive_enabled(),
        }
    }
}

/// Read an integer environment variable with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Largest thread count a sweep should use.
pub fn max_threads() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
    env_u64("DF_MAX_THREADS", cores.min(8) as u64) as usize
}

/// One measured data point.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// The queue configuration measured.
    pub variant: Variant,
    /// Worker-thread count.
    pub threads: usize,
    /// Throughput in million operations per second (enqueues + dequeues).
    pub mops: f64,
    /// Cache-line flushes per operation.
    pub flushes_per_op: f64,
    /// Fences per operation.
    pub fences_per_op: f64,
    /// Dedup-able flushes per operation: flushes of a line already flushed in
    /// the same fence window (counted whether or not coalescing elides them —
    /// `pmem`'s `Stats::duplicate_flushes`).
    pub duplicate_flushes_per_op: f64,
}

enum Built {
    Msq(MsQueue),
    General(GeneralQueue),
    Normalized(NormalizedQueue),
    Log(LogQueue),
    Romulus(RomulusQueue),
}

fn build(variant: Variant, mem: &PMem, cfg: &WorkloadConfig) -> Built {
    let t = mem.thread(0);
    let threads = cfg.threads;
    match variant {
        Variant::Msq | Variant::IzraelevitzMsq => Built::Msq(MsQueue::new(&t)),
        Variant::GeneralIzraelevitz => Built::General(
            GeneralQueue::new(&t, threads, Durability::None, BoundaryStyle::General)
                .with_adaptive(cfg.adaptive),
        ),
        Variant::GeneralManual => Built::General(
            GeneralQueue::new(&t, threads, Durability::Manual, BoundaryStyle::General)
                .with_adaptive(cfg.adaptive),
        ),
        Variant::GeneralOptManual => Built::General(
            GeneralQueue::new(&t, threads, Durability::Manual, BoundaryStyle::Compact)
                .with_adaptive(cfg.adaptive),
        ),
        Variant::NormalizedIzraelevitz => Built::Normalized(
            NormalizedQueue::new(&t, threads, Durability::None, false).with_adaptive(cfg.adaptive),
        ),
        Variant::NormalizedManual => Built::Normalized(
            NormalizedQueue::new(&t, threads, Durability::Manual, false)
                .with_adaptive(cfg.adaptive),
        ),
        Variant::NormalizedOptManual => Built::Normalized(
            NormalizedQueue::new(&t, threads, Durability::Manual, true)
                .with_adaptive(cfg.adaptive),
        ),
        Variant::LogQueue => Built::Log(LogQueue::new(&t, threads)),
        Variant::Romulus => {
            let capacity = cfg.prefill + cfg.pairs_per_thread * threads as u64 + 64;
            Built::Romulus(RomulusQueue::new(&t, capacity))
        }
    }
}

/// Run `pairs` enqueue–dequeue pairs through a handle, returning nothing; the
/// caller measures time and memory statistics around it.
fn run_pairs<H: QueueHandle>(handle: &mut H, pairs: u64, base: u64) {
    for i in 0..pairs {
        handle.enqueue(base + i);
        let _ = handle.dequeue();
    }
}

/// Execute the paper's enqueue–dequeue-pairs workload for one variant and thread
/// count, returning the measured throughput and persistence counts.
pub fn run_workload(variant: Variant, cfg: &WorkloadConfig) -> Measurement {
    let mem = PMem::new(MemConfig::new(cfg.threads.max(1)).mode(Mode::SharedCache));
    let built = build(variant, &mem, cfg);
    let opts = ThreadOptions {
        izraelevitz: variant.izraelevitz(),
    };

    // Pre-fill from thread 0 (not timed, not counted).
    {
        let t = mem.thread_with(0, opts);
        match &built {
            Built::Msq(q) => run_prefill(&mut q.handle(&t), cfg.prefill),
            Built::General(q) => {
                let mut h = q.handle(&t);
                h.set_entry_boundary(false);
                run_prefill(&mut h, cfg.prefill)
            }
            Built::Normalized(q) => {
                let mut h = q.handle(&t);
                h.set_entry_boundary(false);
                run_prefill(&mut h, cfg.prefill)
            }
            Built::Log(q) => run_prefill(&mut q.handle(&t), cfg.prefill),
            Built::Romulus(q) => {
                let mut h = q.handle(&t);
                for i in 0..cfg.prefill {
                    h.enqueue(i);
                }
            }
        }
    }
    mem.persist_everything();

    let barrier = Barrier::new(cfg.threads);
    let results: Vec<(f64, Stats, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|pid| {
                let mem = &mem;
                let built = &built;
                let barrier = &barrier;
                s.spawn(move || {
                    let t = mem.thread_with(pid, opts);
                    let pairs = cfg.pairs_per_thread;
                    let base = (pid as u64) << 48;
                    // Build the handle before the barrier so set-up cost is excluded.
                    match built {
                        Built::Msq(q) => {
                            let mut h = q.handle(&t);
                            barrier.wait();
                            let start = Instant::now();
                            run_pairs(&mut h, pairs, base);
                            (start.elapsed().as_secs_f64(), t.stats(), pairs * 2)
                        }
                        Built::General(q) => {
                            let mut h = q.handle(&t);
                            h.set_entry_boundary(false);
                            h.runtime_mut().set_final_boundary(false);
                            barrier.wait();
                            let start = Instant::now();
                            run_pairs(&mut h, pairs, base);
                            (start.elapsed().as_secs_f64(), t.stats(), pairs * 2)
                        }
                        Built::Normalized(q) => {
                            let mut h = q.handle(&t);
                            h.set_entry_boundary(false);
                            h.runtime_mut().set_final_boundary(false);
                            barrier.wait();
                            let start = Instant::now();
                            run_pairs(&mut h, pairs, base);
                            (start.elapsed().as_secs_f64(), t.stats(), pairs * 2)
                        }
                        Built::Log(q) => {
                            let mut h = q.handle(&t);
                            barrier.wait();
                            let start = Instant::now();
                            run_pairs(&mut h, pairs, base);
                            (start.elapsed().as_secs_f64(), t.stats(), pairs * 2)
                        }
                        Built::Romulus(q) => {
                            let mut h = q.handle(&t);
                            barrier.wait();
                            let start = Instant::now();
                            for i in 0..pairs {
                                h.enqueue(base + i);
                                let _ = h.dequeue();
                            }
                            (start.elapsed().as_secs_f64(), t.stats(), pairs * 2)
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let wall = results.iter().map(|(t, _, _)| *t).fold(0.0f64, f64::max);
    let total_ops: u64 = results.iter().map(|(_, _, ops)| ops).sum();
    let total_stats: Stats = results.iter().map(|(_, s, _)| *s).sum();
    Measurement {
        variant,
        threads: cfg.threads,
        mops: total_ops as f64 / wall / 1e6,
        flushes_per_op: total_stats.flushes_per_op(total_ops),
        fences_per_op: total_stats.fences_per_op(total_ops),
        duplicate_flushes_per_op: total_stats.duplicate_flushes_per_op(total_ops),
    }
}

fn run_prefill<H: QueueHandle>(handle: &mut H, prefill: u64) {
    for i in 0..prefill {
        handle.enqueue(i);
    }
}

/// Run a whole figure: the given variants over 1..=`max_threads` threads, printing a
/// CSV-ish table like the paper's plots (one row per (threads, variant)).
///
/// `name` is the machine-readable identifier (`"fig5"`, `"fig7"`, …): when the
/// `DF_JSON` environment variable is set, the sweep also writes
/// `BENCH_<name>.json` (schema in [`json`]; see README "Machine-readable
/// benchmark output") so the perf trajectory can be tracked across PRs.
pub fn run_figure(name: &str, title: &str, variants: &[Variant]) -> Vec<Measurement> {
    let max = max_threads();
    let wall = Instant::now();
    println!("# {title}");
    println!(
        "# pairs/thread = {}, prefill = {}, threads = 1..={max}",
        env_u64("DF_PAIRS", DEFAULT_PAIRS),
        env_u64("DF_PREFILL", DEFAULT_PREFILL)
    );
    println!("{:<10} {:<28} {:>10} {:>12} {:>12}", "threads", "variant", "Mops/s", "flushes/op", "fences/op");
    let mut all = Vec::new();
    for threads in 1..=max {
        let cfg = WorkloadConfig::from_env(threads);
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
    let rows: Vec<json::JsonRow> = all.iter().map(json::JsonRow::from).collect();
    json::emit(
        name,
        &[
            ("pairs_per_thread", env_u64("DF_PAIRS", DEFAULT_PAIRS)),
            ("prefill", env_u64("DF_PREFILL", DEFAULT_PREFILL)),
            ("max_threads", max as u64),
        ],
        wall.elapsed().as_secs_f64(),
        &rows,
    );
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
            adaptive: capsules::adaptive_enabled(),
        }
    }

    #[test]
    fn every_variant_runs_the_workload() {
        for variant in Variant::all() {
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
            }
        }
        let mut labels: Vec<_> = all.iter().map(|v| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len(), "duplicate entries in Variant::all()");
    }

    #[test]
    fn persistent_variants_flush_and_msq_does_not() {
        let msq = run_workload(Variant::Msq, &tiny(1));
        assert_eq!(msq.flushes_per_op, 0.0);
        for variant in [
            Variant::IzraelevitzMsq,
            Variant::GeneralManual,
            Variant::NormalizedManual,
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
        for variant in Variant::all() {
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

    #[test]
    fn opt_variants_use_fewer_fences_than_their_bases() {
        // This asserts on the *simulators'* instruction profiles, so pin the
        // slow path: under the adaptive fast path the General and Normalized
        // constructions converge to the same single-CAS profile when
        // uncontended (their remaining difference is the boundary style).
        let mut cfg = tiny(1);
        cfg.adaptive = false;
        let general = run_workload(Variant::GeneralManual, &cfg);
        let general_opt = run_workload(Variant::GeneralOptManual, &cfg);
        assert!(general_opt.fences_per_op < general.fences_per_op);
        let normalized = run_workload(Variant::NormalizedManual, &cfg);
        let normalized_opt = run_workload(Variant::NormalizedOptManual, &cfg);
        assert!(normalized_opt.fences_per_op < normalized.fences_per_op);
        // And the normalized construction needs fewer fences than the general one,
        // which is the mechanism behind its higher throughput in Figures 5 and 6.
        assert!(normalized.fences_per_op < general.fences_per_op);
        // The adaptive fast path must only ever lower the fence count.
        let adaptive = run_workload(Variant::GeneralManual, &tiny(1));
        assert!(adaptive.fences_per_op <= general.fences_per_op);
    }
}
