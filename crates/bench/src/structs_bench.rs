//! Throughput workloads for the structure family (`fig_struct`).
//!
//! Mirrors the queue harness in the crate root: every thread runs a fixed
//! operation mix on a prefilled structure and we report million operations per
//! second plus flushes/fences per operation. Stacks run push–pop pairs (two
//! ops per iteration); sets run an insert–contains–remove round on a
//! per-thread key stripe (three ops per iteration), so every iteration
//! exercises both the one-CAS and, for sets, the two-CAS (mark + unlink)
//! protocol paths.

use std::sync::Barrier;
use std::time::Instant;

use pmem::{MemConfig, Mode, PMem, Stats};
use structs::{MapConfig, StructOp};

use crate::dfck::{self, Built, Shape, Variant};
use crate::json::JsonRow;
use crate::WorkloadConfig;

/// One measured data point of the structure sweep.
#[derive(Clone, Debug)]
pub struct StructMeasurement {
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
}

impl From<&StructMeasurement> for JsonRow {
    fn from(m: &StructMeasurement) -> JsonRow {
        JsonRow {
            variant: m.variant.label().to_string(),
            threads: m.threads,
            mops: m.mops,
            flushes_per_op: m.flushes_per_op,
            fences_per_op: m.fences_per_op,
            extra: Vec::new(),
        }
    }
}

/// The structure family: every swept variant that is not a queue (those have
/// their own figure harness in the crate root).
fn struct_variants() -> Vec<Variant> {
    let all = Variant::all().into_iter();
    all.filter(|v| v.shape() != Shape::Fifo).collect()
}

/// Build `variant` for `threads` workers through the sweeper's table
/// ([`dfck::build`]). Maps get a bucket array small enough that the measured
/// window still crosses grow cycles (the resize protocol is part of the cost
/// being measured), large enough that steady-state chains stay short.
fn build(variant: Variant, mem: &PMem, threads: usize) -> Built {
    dfck::build(variant, &mem.thread(0), threads, MapConfig::new(64, 8), true, None)
}

/// Run the structure workload for one variant and thread count.
///
/// Set prefill keys are spread across the worker stripes so every thread's
/// traversals cross other threads' keys (`prefill` bounds the list length and
/// therefore the search cost, as in the paper's queue prefill).
pub fn run_struct_workload(variant: Variant, cfg: &WorkloadConfig) -> StructMeasurement {
    assert_ne!(variant.shape(), Shape::Fifo, "queues run through `run_workload`");
    let mem = PMem::new(MemConfig::new(cfg.threads.max(1)).mode(Mode::SharedCache));
    let built = build(variant, &mem, cfg.threads);
    let opts = variant.thread_options();
    let stack = variant.shape() == Shape::Lifo;

    // Pre-fill from thread 0 (not timed, not counted). Sets keep a bounded
    // key universe, so prefill inserts distinct keys outside the worker range.
    {
        let t = mem.thread_with(0, opts);
        let mut h = built.handle(&t);
        for i in 0..cfg.prefill {
            let _ = h.apply(if stack {
                StructOp::Push(i)
            } else {
                StructOp::Insert(1 + 2 * i) // distinct odd keys
            });
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
                let threads = cfg.threads as u64;
                s.spawn(move || {
                    let t = mem.thread_with(pid, opts);
                    let mut h = built.handle(&t);
                    let iters = cfg.pairs_per_thread;
                    let base = (pid as u64) << 48;
                    barrier.wait();
                    let start = Instant::now();
                    let ops = if stack {
                        for i in 0..iters {
                            let _ = h.apply(StructOp::Push(base + i));
                            let _ = h.apply(StructOp::Pop);
                        }
                        iters * 2
                    } else {
                        for i in 0..iters {
                            // Even keys, interleaved across threads near the
                            // head of the list: disjoint between workers
                            // (distinct mod-2·threads residues), disjoint from
                            // the odd prefill, and bounded search depth for
                            // every pid (a `pid << 48` stripe would make every
                            // worker but pid 0 traverse the whole prefill on
                            // each operation).
                            let k = 2 * ((i % 64) * threads + pid as u64);
                            let _ = h.apply(StructOp::Insert(k));
                            let _ = h.apply(StructOp::Contains(k));
                            let _ = h.apply(StructOp::Remove(k));
                        }
                        iters * 3
                    };
                    (start.elapsed().as_secs_f64(), t.stats(), ops)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let wall = results.iter().map(|(t, _, _)| *t).fold(0.0f64, f64::max);
    let total_ops: u64 = results.iter().map(|(_, _, ops)| ops).sum();
    let total_stats: Stats = results.iter().map(|(_, s, _)| *s).sum();
    StructMeasurement {
        variant,
        threads: cfg.threads,
        mops: total_ops as f64 / wall / 1e6,
        flushes_per_op: total_stats.flushes_per_op(total_ops),
        fences_per_op: total_stats.fences_per_op(total_ops),
    }
}

/// Run the whole structure figure: every variant over 1..=`max_threads`
/// threads, printing the usual table and emitting `BENCH_struct.json` when
/// `DF_JSON` is set.
pub fn run_struct_figure() -> Vec<StructMeasurement> {
    let max = crate::max_threads();
    let wall = Instant::now();
    println!("# structure family: Treiber stack + linked-list set + hash map, all variants");
    println!(
        "# iterations/thread = {}, prefill = {}, threads = 1..={max}",
        crate::env_u64("DF_PAIRS", crate::DEFAULT_PAIRS),
        crate::env_u64("DF_PREFILL", crate::DEFAULT_PREFILL)
    );
    println!(
        "{:<10} {:<22} {:>10} {:>12} {:>12}",
        "threads", "variant", "Mops/s", "flushes/op", "fences/op"
    );
    let mut all = Vec::new();
    for threads in 1..=max {
        let cfg = WorkloadConfig::from_env(threads);
        for variant in struct_variants() {
            let m = run_struct_workload(variant, &cfg);
            println!(
                "{:<10} {:<22} {:>10.3} {:>12.2} {:>12.2}",
                m.threads,
                m.variant.label(),
                m.mops,
                m.flushes_per_op,
                m.fences_per_op
            );
            all.push(m);
        }
    }
    let rows: Vec<JsonRow> = all.iter().map(JsonRow::from).collect();
    crate::json::emit(
        "struct",
        &[
            ("pairs_per_thread", crate::env_u64("DF_PAIRS", crate::DEFAULT_PAIRS)),
            ("prefill", crate::env_u64("DF_PREFILL", crate::DEFAULT_PREFILL)),
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
            pairs_per_thread: 150,
            prefill: 20,
            adaptive: capsules::adaptive_enabled(),
        }
    }

    #[test]
    fn every_struct_variant_runs_the_workload() {
        for variant in struct_variants() {
            let m = run_struct_workload(variant, &tiny(2));
            assert!(m.mops > 0.0, "{variant:?} produced no throughput");
        }
    }

    #[test]
    fn detectable_variants_flush_and_izraelevitz_flushes_more_often_than_plain() {
        for variant in struct_variants() {
            let m = run_struct_workload(variant, &tiny(1));
            assert!(m.flushes_per_op > 0.0, "{variant:?} should flush");
        }
    }

    /// The harness has no variant table of its own: what it measures is a
    /// [`dfck::Built`] from the sweeper's `build`, so driving the sweeper's
    /// pair workload through it reproduces the sweeper's crash-free history.
    #[test]
    fn structs_bench_and_the_sweeper_share_one_build() {
        use dfck::Workload;
        for variant in struct_variants() {
            let w = match variant.shape() {
                Shape::Lifo => Workload::stack_pair(),
                _ => Workload::set_pair(),
            };
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let built: Built = build(variant, &mem, 1);
            let t = mem.thread_with(0, variant.thread_options());
            let mut h = built.handle(&t);
            for &v in &w.prefill {
                let _ = h.apply(variant.shape().prefill_op(v));
            }
            let rets: Vec<Option<u64>> = w.ops.iter().map(|&op| h.apply(op)).collect();
            let drained = h.drain_up_to(w.drain_bound() + 1);
            let swept = dfck::replay(variant, &w, &pmem::CrashPlan::new(Vec::new()), false);
            let completed: Vec<_> = rets.into_iter().map(crate::sweep::OpOutcome::Completed).collect();
            assert_eq!(completed, swept.outcomes, "{variant:?}");
            assert_eq!(drained.items, swept.drained, "{variant:?}");
        }
    }
}
