//! The structure family's figure (`fig_struct`): every non-queue variant through
//! the crate's one figure entry point ([`crate::run_figure`] → [`crate::run_workload`]).

use crate::dfck::{Shape, Variant};
use crate::Measurement;

/// The structure family: every variant that is not a queue (those are the
/// paper's own figures).
fn struct_variants() -> Vec<Variant> {
    let all = Variant::all().into_iter();
    all.filter(|v| v.shape() != Shape::Fifo).collect()
}

/// Run the whole structure figure: every variant over 1..=`max_threads`
/// threads, printing the usual table.
pub fn run_struct_figure() -> Vec<Measurement> {
    crate::run_figure(
        "structure family: Treiber stack + linked-list set + hash map, all variants",
        &struct_variants(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfck::{self, Built, Workload};
    use crate::{run_workload, WorkloadConfig};
    use pmem::{MemConfig, Mode, PMem};
    use structs::MapConfig;

    fn tiny(threads: usize) -> WorkloadConfig {
        WorkloadConfig {
            threads,
            pairs_per_thread: 150,
            prefill: 20,
        }
    }

    #[test]
    fn every_struct_variant_runs_the_workload() {
        for variant in struct_variants() {
            let m = run_workload(variant, &tiny(2));
            assert!(m.mops > 0.0, "{variant:?} produced no throughput");
        }
    }

    #[test]
    fn detectable_variants_flush_and_izraelevitz_flushes_more_often_than_plain() {
        for variant in struct_variants() {
            let m = run_workload(variant, &tiny(1));
            assert!(m.flushes_per_op > 0.0, "{variant:?} should flush");
        }
    }

    /// The harness has no variant table of its own: what it measures is a
    /// [`dfck::Built`] from the sweeper's `build`, so driving the sweeper's
    /// pair workload through it reproduces the sweeper's crash-free history.
    #[test]
    fn structs_bench_and_the_sweeper_share_one_build() {
        for variant in struct_variants() {
            let w = match variant.shape() {
                Shape::Lifo => Workload::pair(),
                _ => Workload::set_pair(),
            };
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let built: Built =
                dfck::build(variant, &mem.thread(0), 1, MapConfig::new(64, 8), 0, true, None);
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
